package core

import (
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"repro/internal/ipc"
	"repro/internal/shm"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// The warm sentinel pool removes fork+exec from the procctl open path. A
// manifest opting in (param "pool"=N) keeps up to N idle pre-spawned
// sentinels; Open adopts one and rebinds it with a single OpOpen handshake
// over the already-connected control pipes — a pipe round trip instead of a
// process launch. The pool replenishes in the background after each take,
// so steady open/close churn keeps finding warm children.

// poolHandshakeTimeout bounds the OpOpen rebind exchange with a warm
// sentinel. A child that cannot answer within this window is discarded and
// the open falls back to a cold spawn, so a wedged pool entry can only delay
// an open, never hang it.
const poolHandshakeTimeout = 5 * time.Second

// poolParam parses the manifest's warm-pool size (param "pool"; absent or
// "0" disables pooling).
func poolParam(m vfs.Manifest) (int, error) {
	v := m.Params["pool"]
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("core: bad pool param %q", v)
	}
	return n, nil
}

// pooledSentinel is one idle pre-spawned procctl child: started, conduits
// connected (pipes, plus a mapped shm segment when the manifest selects the
// ring carrier), program NOT yet opened — it is blocked reading the command
// stream for the OpOpen handshake (or EOF). Adoption hands the whole
// conduit set to the transport, so the rebind rides the same rings the
// session will.
type pooledSentinel struct {
	cmd      *exec.Cmd
	cf       *ipc.ChannelFiles
	seg      *shm.Segment // nil on the pipe carrier
	fallback string       // shm→pipe demotion reason recorded at spawn
	mon      *childMonitor
}

// closeConduits releases the parent-side pipes and, for a ring-carrier
// entry, the segment. Closing the pipes first matters: a shm child parks on
// its command ring, and it is the control pipe's EOF — its parent-liveness
// watchdog — that tells it to close its own segment view and exit.
func (ps *pooledSentinel) closeConduits() {
	ps.cf.Close()
	if ps.seg != nil {
		ps.seg.Close()
	}
}

// shutdown retires an idle sentinel: closing the parent conduit ends
// delivers EOF, on which a pooled child exits cleanly.
func (ps *pooledSentinel) shutdown() {
	ps.closeConduits()
	ps.mon.reap()
}

// awaitReady blocks until the child announces (Seq-0 StatusOK beacon) that it
// has booted and parked on the control channel. Parking only ready sentinels
// keeps adoption latency down to a pipe round trip — without this, an
// adoption right after a spawn would absorb the tail of exec+runtime init.
// A child that cannot produce the beacon within the handshake timeout is
// reported as unusable.
func (ps *pooledSentinel) awaitReady() error {
	deadline := ps.cf.FromChild.SetReadDeadline(time.Now().Add(poolHandshakeTimeout)) == nil
	resp, err := wire.NewReader(ps.cf.FromChild).ReadResponse()
	if deadline {
		ps.cf.FromChild.SetReadDeadline(time.Time{})
	}
	if err != nil {
		return fmt.Errorf("core: pool sentinel never became ready: %w", err)
	}
	if resp.Seq != 0 || resp.Status != wire.StatusOK {
		return fmt.Errorf("core: pool sentinel sent %v/%d instead of ready beacon", resp.Status, resp.Seq)
	}
	return nil
}

// sentinelPool holds idle warm sentinels keyed by manifest path.
type sentinelPool struct {
	mu       sync.Mutex
	idle     map[string][]*pooledSentinel
	spawning map[string]int // background spawns in flight per manifest
	draining bool
	wg       sync.WaitGroup // outstanding background spawns
}

// procPool is the process-wide warm pool. Sentinels are keyed by manifest
// path, so two opens of different active files never trade children.
var procPool = &sentinelPool{
	idle:     make(map[string][]*pooledSentinel),
	spawning: make(map[string]int),
}

// acquire pops an idle live sentinel for path, discarding any that died
// while parked. Returns nil when the pool has none.
func (p *sentinelPool) acquire(path string) *pooledSentinel {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[path]
	for len(q) > 0 {
		ps := q[len(q)-1]
		q = q[:len(q)-1]
		p.idle[path] = q
		if _, dead := ps.mon.exited(); dead {
			ps.closeConduits() // dead while parked; already reaped by monitor
			continue
		}
		return ps
	}
	return nil
}

// ensure tops the pool up toward want idle sentinels for path, spawning the
// shortfall in the background so the caller's open is never charged for it.
func (p *sentinelPool) ensure(path string, m vfs.Manifest, want int) {
	p.mu.Lock()
	need := 0
	if !p.draining {
		need = want - len(p.idle[path]) - p.spawning[path]
	}
	if need > 0 {
		p.spawning[path] += need
		p.wg.Add(need)
	}
	p.mu.Unlock()
	for i := 0; i < need; i++ {
		go p.spawnOne(path, m)
	}
}

// spawnOne starts one warm sentinel and parks it as idle (or shuts it down
// if the pool is draining, or abandons quietly on spawn failure — the next
// cold open will surface any persistent problem).
func (p *sentinelPool) spawnOne(path string, m vfs.Manifest) {
	defer p.wg.Done()
	ps, err := spawnPooled(path, m)
	p.mu.Lock()
	p.spawning[path]--
	if err != nil {
		p.mu.Unlock()
		return
	}
	if p.draining {
		p.mu.Unlock()
		ps.shutdown()
		return
	}
	p.park(path, ps)
	p.mu.Unlock()
}

// park registers ps as idle for path and arms its death hook to self-evict.
// Called with p.mu held.
func (p *sentinelPool) park(path string, ps *pooledSentinel) {
	p.idle[path] = append(p.idle[path], ps)
	ps.mon.setOnDeath(func(error) { p.evict(path, ps) })
}

// evict removes a parked sentinel that died idle. A no-op when the entry was
// already acquired (the adopter's death hook has taken over by then).
func (p *sentinelPool) evict(path string, ps *pooledSentinel) {
	p.mu.Lock()
	q := p.idle[path]
	for i, cand := range q {
		if cand == ps {
			p.idle[path] = append(q[:i], q[i+1:]...)
			p.mu.Unlock()
			ps.closeConduits()
			return
		}
	}
	p.mu.Unlock()
}

// idleCount reports how many warm sentinels are parked for path.
func (p *sentinelPool) idleCount(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[path])
}

// drain retires every idle sentinel and waits out in-flight background
// spawns (which self-retire). The pool is usable again afterwards.
func (p *sentinelPool) drain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	p.wg.Wait() // in-flight spawns observe draining and shut themselves down

	p.mu.Lock()
	all := p.idle
	p.idle = make(map[string][]*pooledSentinel)
	p.draining = false
	p.mu.Unlock()
	for _, q := range all {
		for _, ps := range q {
			ps.shutdown()
		}
	}
}

// spawnPooled starts one warm procctl sentinel for path and waits for its
// ready beacon: spawned with the pooled marker, the child loads the manifest,
// announces readiness, and parks on the control channel awaiting its OpOpen
// rebind.
func spawnPooled(path string, m vfs.Manifest) (*pooledSentinel, error) {
	cmd, cf, seg, fallback, err := spawnSentinel(path, m, StrategyProcCtl, envPooled+"=1")
	if err != nil {
		return nil, err
	}
	ps := &pooledSentinel{cmd: cmd, cf: cf, seg: seg, fallback: fallback}
	ps.mon = watchChild(cmd, nil)
	if err := ps.awaitReady(); err != nil {
		ps.cmd.Process.Kill()
		ps.shutdown()
		return nil, err
	}
	return ps, nil
}

// acquireWarmTransport tries to adopt a warm sentinel for manifestPath,
// returning (nil, false) when the pool is empty or the rebind handshake
// fails — the caller then cold-spawns as usual.
func acquireWarmTransport(manifestPath string, m vfs.Manifest, opTimeout time.Duration) (*procCtlTransport, bool) {
	ps := procPool.acquire(manifestPath)
	if ps == nil {
		return nil, false
	}
	t := &procCtlTransport{
		cmd:       ps.cmd,
		cf:        ps.cf,
		seg:       ps.seg,
		fallback:  ps.fallback,
		conn:      sessionConn(ps.cf, ps.seg),
		mon:       ps.mon,
		opTimeout: opTimeout,
	}
	if t.seg != nil {
		// New adoption generation: the segment's control-region epoch lets
		// either side (and post-mortem tests) tell a rebound session from the
		// pooled spawn it reuses.
		t.seg.AdvanceEpoch()
	}
	t.mux = ipc.NewMuxConn(t.conn)
	// Hand supervision from the pool to this transport. If the child died in
	// the instant between acquire and here, the hook fires immediately and
	// the handshake below fails fast instead of waiting out its timeout.
	// The adopted segment (if any) travels with the transport, so death
	// cleanup matches the cold-spawn path: poison, wake, unmap.
	ps.mon.setOnDeath(func(waitErr error) {
		if t.closing.Load() {
			return
		}
		t.mux.Fail(sentinelDeath(waitErr))
		if t.seg != nil {
			t.seg.Close()
		}
	})

	// Rebind: one pipe round trip replaces fork+exec+program-open. The child
	// opens its program on receipt and answers with the outcome.
	ctx, cancel := context.WithTimeout(context.Background(), poolHandshakeTimeout)
	resp, err := t.mux.RoundTripContext(ctx, &wire.Request{Op: wire.OpOpen}, nil)
	cancel()
	if err == nil {
		err = wire.ToError(wire.OpOpen, resp.Status, resp.Msg)
	}
	if err != nil {
		// Sour entry: discard it and let the caller cold-spawn, which will
		// also surface any deterministic program-open error properly.
		t.closing.Store(true)
		t.mux.Close()
		t.conn.Close()
		t.cmd.Process.Kill()
		t.mon.reap()
		return nil, false
	}
	if m.Params["readahead"] != "false" {
		t.pf = newPrefetcher(t.muxReadAt, true)
	}
	return t, true
}

// PrewarmSentinels synchronously fills the warm pool for the manifest at
// path up to its configured size (param "pool"), so subsequent Opens pay
// only the rebind handshake. It returns the number of idle sentinels parked.
// Manifests without a pool param are a no-op.
func PrewarmSentinels(path string) (int, error) {
	m, err := vfs.Load(path)
	if err != nil {
		return 0, fmt.Errorf("core: prewarm: %w", err)
	}
	want, err := poolParam(m)
	if err != nil {
		return 0, err
	}
	for procPool.idleCount(path) < want {
		ps, err := spawnPooled(path, m)
		if err != nil {
			return procPool.idleCount(path), err
		}
		procPool.mu.Lock()
		procPool.park(path, ps)
		procPool.mu.Unlock()
	}
	return procPool.idleCount(path), nil
}

// DrainSentinelPool shuts down every idle warm sentinel. Benchmarks and
// tests call it to release pooled subprocesses deterministically; the pool
// re-warms on the next pooled Open.
func DrainSentinelPool() {
	procPool.drain()
}

// DrainSharedSegments does nothing. Every shm session owns its segment and
// sentinel, both reaped at Close, so no shared segment outlives a session.
// It is kept for callers written against an earlier shared-segment carrier.
func DrainSharedSegments() {}

// IdleSentinels reports how many warm sentinels are parked for the manifest
// at path — observability for churn benchmarks and tests.
func IdleSentinels(path string) int {
	return procPool.idleCount(path)
}
