package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/shm"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// The MPSC lane plane: many sessions of one active file multiplexed onto a
// single shared-memory segment served by a single sentinel subprocess. The
// classic shm transport pins one segment, four doorbell eventfds, and one
// child per session; at fleet scale (hundreds of sessions of the same
// manifest) that descriptor and process bill dominates. Here the hub hands
// each new session a lane — a tagged slice of the shared command/reply
// queues — so a segment's five descriptors and one sentinel serve up to
// shm.MaxLanes sessions, and a new segment is spawned only when every lane
// of the existing ones is taken.
const (
	// envShmLanes marks a lane-serving sentinel child and carries the lane
	// count of the segment it must attach (same descriptor slots as envShm).
	envShmLanes = "AF_SENTINEL_SHM_LANES"
)

// laneReadyTimeout bounds the wait for a fresh lane sentinel's ready beacon;
// laneOpenTimeout bounds each session's OpOpen handshake on its lane.
const (
	laneReadyTimeout = 5 * time.Second
	laneOpenTimeout  = 5 * time.Second
)

// shmLanesParam parses the manifest's lane-plane selection (param
// "shmlanes"): 0 or absent disables it; 1..shm.MaxLanes multiplexes that
// many sessions per shared segment. Requires transport=shm — lanes are a
// sharing discipline for the ring carrier, not a carrier of their own.
func shmLanesParam(m vfs.Manifest) (int, error) {
	v := m.Params["shmlanes"]
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > shm.MaxLanes {
		return 0, fmt.Errorf("core: bad shmlanes param %q (want 1..%d)", v, shm.MaxLanes)
	}
	carrier, err := transportParam(m)
	if err != nil {
		return 0, err
	}
	if carrier != "shm" {
		return 0, fmt.Errorf("core: shmlanes=%d requires transport=shm", n)
	}
	return n, nil
}

// laneHub is the process-wide registry of shared lane segments, keyed by
// manifest path so sessions of different active files never share a
// sentinel.
type laneHub struct {
	mu   sync.Mutex
	segs map[string][]*laneSegment
}

var lanePlane = &laneHub{segs: make(map[string][]*laneSegment)}

// acquire hands out one lane: the first free lane of a live segment for this
// manifest, or a lane of a freshly spawned segment when all are full. The
// returned reason is non-empty (with nil conn and nil error) when the plane
// cannot serve and the caller should fall back to a dedicated session.
func (h *laneHub) acquire(path string, m vfs.Manifest, lanes int) (*laneConn, string, error) {
	if !shm.Supported() {
		return nil, "platform does not support shared-memory rings", nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	live := h.segs[path][:0]
	var conn *laneConn
	for _, ls := range h.segs[path] {
		if ls.isDead() {
			continue // reaped by its death hook; drop from the registry
		}
		live = append(live, ls)
		if conn == nil {
			conn = ls.claim()
		}
	}
	h.segs[path] = live
	if conn != nil {
		return conn, "", nil
	}
	ls, err := h.spawnSegment(path, m, lanes)
	if err != nil {
		return nil, fmt.Sprintf("lane segment spawn failed: %v", err), nil
	}
	conn = ls.claim()
	if conn == nil {
		ls.shutdown()
		return nil, "fresh lane segment refused its first claim", nil
	}
	h.segs[path] = append(h.segs[path], ls)
	return conn, "", nil
}

// spawnSegment creates one shared segment, starts its sentinel child, waits
// for the ready beacon, and starts the demux loop.
// Called with the hub lock held: concurrent opens of the same manifest wait
// for the boot rather than over-spawning children.
func (h *laneHub) spawnSegment(path string, m vfs.Manifest, lanes int) (*laneSegment, error) {
	seg, err := shm.NewMPSC(lanes, 0, 0)
	if err != nil {
		return nil, err
	}
	cf, err := ipc.NewChannelFiles(true)
	if err != nil {
		seg.Close()
		return nil, err
	}
	fail := func(err error) (*laneSegment, error) {
		cf.Close()
		seg.Close()
		return nil, err
	}
	var cmd *exec.Cmd
	if m.Program.Exec != "" {
		cmd = exec.Command(m.Program.Exec, m.Program.Args...)
	} else {
		self, err := os.Executable()
		if err != nil {
			return fail(fmt.Errorf("locate own executable: %w", err))
		}
		cmd = exec.Command(self)
	}
	cmd.Env = append(os.Environ(),
		envChildMarker+"=1",
		envManifest+"="+path,
		envStrategy+"="+StrategyProcCtl.String(),
		envShmLanes+"="+strconv.Itoa(lanes),
	)
	cmd.ExtraFiles = append(cf.ChildFiles(), seg.ChildFiles()...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fail(fmt.Errorf("start lane sentinel: %w", err))
	}
	cf.CloseChildEnds()

	ls := &laneSegment{path: path, seg: seg, cf: cf, cmd: cmd}
	ls.mon = watchChild(cmd, func(waitErr error) {
		if !ls.closing.Load() {
			ls.fail(sentinelDeath(waitErr))
		}
	})
	if err := ls.awaitReady(); err != nil {
		ls.shutdown()
		return nil, err
	}
	go ls.demux()
	return ls, nil
}

// drain tears down every segment of the hub — idle or not; sessions still
// open observe the closure as a transport failure. The bench harness and
// tests call this (via DrainSharedSegments) so shared children and their
// descriptors do not outlive the run.
func (h *laneHub) drain() {
	h.mu.Lock()
	var all []*laneSegment
	for path, segs := range h.segs {
		all = append(all, segs...)
		delete(h.segs, path)
	}
	h.mu.Unlock()
	for _, ls := range all {
		ls.shutdown()
	}
}

// DrainSharedSegments retires every shared lane segment and reaps their
// sentinel children. Sessions still multiplexed on one fail as if the
// sentinel died. New opens spawn fresh segments.
func DrainSharedSegments() { lanePlane.drain() }

// laneSegment is one shared segment: the MPSC mapping, the sentinel child
// serving its lanes, and the demux loop routing reply records to sessions.
type laneSegment struct {
	path string
	seg  *shm.MPSCSegment
	cf   *ipc.ChannelFiles
	cmd  *exec.Cmd
	mon  *childMonitor

	// routes fans reply records out to sessions lock-free on the hot path;
	// mu guards the lane lifecycle (claim, release, EOS bookkeeping) and the
	// dead flag ordering against teardown.
	routes [shm.MaxLanes]atomic.Pointer[laneConn]

	mu      sync.Mutex
	eos     [shm.MaxLanes]bool // reply-EOS arrived while the lane was still claimed
	dead    bool
	deadErr error
	closing atomic.Bool // suppresses the death hook during deliberate shutdown
}

// awaitReady consumes the child's boot beacon from the data-out pipe, with a
// deadline so a child that never boots cannot wedge every open of this
// manifest behind the hub lock.
func (ls *laneSegment) awaitReady() error {
	deadline := ls.cf.FromChild.SetReadDeadline(time.Now().Add(laneReadyTimeout)) == nil
	resp, err := wire.NewReader(ls.cf.FromChild).ReadResponse()
	if deadline {
		ls.cf.FromChild.SetReadDeadline(time.Time{})
	}
	if err != nil {
		return fmt.Errorf("core: lane sentinel never became ready: %w", err)
	}
	if resp.Seq != 0 || resp.Status != wire.StatusOK {
		return fmt.Errorf("core: lane sentinel sent %v/%d instead of ready beacon", resp.Status, resp.Seq)
	}
	return nil
}

func (ls *laneSegment) isDead() bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.dead
}

// claim allocates one lane and registers its session conduit.
func (ls *laneSegment) claim() *laneConn {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.dead {
		return nil
	}
	lane, ok := ls.seg.ClaimLane()
	if !ok {
		return nil
	}
	frames, data := ls.seg.Cmd().LaneProducers(lane)
	c := &laneConn{ls: ls, lane: lane, frames: frames, data: data, respQ: newByteQueue()}
	ls.eos[lane] = false
	ls.routes[lane].Store(c)
	return c
}

// release returns a session's lane. The lane parks in draining until the
// serving side's reply-EOS confirms no more of its bytes can arrive; only
// then can a successor session reuse the lane without inheriting stale
// replies.
func (ls *laneSegment) release(c *laneConn) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.routes[c.lane].Load() != c {
		return
	}
	ls.routes[c.lane].Store(nil)
	ls.seg.ReleaseLane(c.lane)
	if ls.eos[c.lane] {
		ls.eos[c.lane] = false
		ls.seg.QuiesceLane(c.lane)
	}
}

// demux is the segment's single consumer: it drains the reply queue and
// routes each record to its lane's session.
func (ls *laneSegment) demux() {
	reply := ls.seg.Reply()
	for {
		err := reply.Drain(func(lane uint16, kind shm.RecordKind, payload []byte) {
			switch kind {
			case shm.RecordFrame:
				// Hot path: lock-free route lookup, one copy into the
				// session's response queue. A cleared route (released
				// lane) drops the straggler on the floor.
				if c := ls.routes[lane].Load(); c != nil {
					c.respQ.write(payload)
				}
			case shm.RecordEOS:
				ls.laneQuiesced(lane)
			}
		})
		if err != nil {
			return // segment closed (teardown or death hook)
		}
	}
}

// laneQuiesced handles the serving side's reply-EOS for a lane: the child's
// lane server exited and flushed everything, so no further bytes of this
// tenancy can arrive. If the session already released the lane it becomes
// reusable now; if the session still holds it (the server quit first — open
// failure, desync shutdown), the response stream ends so the session's mux
// observes EOF instead of hanging, and release() frees the lane later.
func (ls *laneSegment) laneQuiesced(lane uint16) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if c := ls.routes[lane].Load(); c != nil {
		c.respQ.close(nil)
		ls.eos[lane] = true
		return
	}
	ls.seg.QuiesceLane(lane)
	ls.eos[lane] = false
}

// fail is the death path: poison every session multiplexed on the segment,
// then tear the mapping down (which also wakes the demux loop and any
// parked producers). The hub drops the segment at its next acquire.
func (ls *laneSegment) fail(err error) {
	ls.mu.Lock()
	if ls.dead {
		ls.mu.Unlock()
		return
	}
	ls.dead = true
	ls.deadErr = err
	var conns []*laneConn
	for i := range ls.routes {
		if c := ls.routes[i].Load(); c != nil {
			conns = append(conns, c)
		}
	}
	ls.mu.Unlock()
	ls.seg.Close()
	ls.cf.Close()
	for _, c := range conns {
		c.respQ.close(err)
		if f := c.onFail.Load(); f != nil {
			(*f)(err)
		}
	}
}

// shutdown is the deliberate teardown (hub drain, failed boot): closing the
// segment delivers EOF to the child's intake, which exits; the pipes close
// behind it and the child is reaped.
func (ls *laneSegment) shutdown() {
	ls.closing.Store(true)
	ls.fail(errors.New("core: shared lane segment drained"))
	ls.mon.reap()
}

// laneConn is one session's conduit over a shared segment — the lane-plane
// counterpart of shmConn. Command frames and posted write payloads ride the
// shared command queue as records tagged with the session's lane (the two
// producers share one flush bracket, so a batch rings one doorbell);
// responses arrive from the demux loop through the session's private byte
// queue.
type laneConn struct {
	ls     *laneSegment
	lane   uint16
	frames *shm.Producer
	data   *shm.Producer
	respQ  *byteQueue
	once   sync.Once

	// onFail lets the owning transport poison its mux the moment the shared
	// sentinel dies — the per-session fan-out of the segment's death hook.
	onFail atomic.Pointer[func(error)]
}

var _ ipc.FrameConn = (*laneConn)(nil)

func (c *laneConn) Ctrl() io.Writer { return c.frames }
func (c *laneConn) Data() io.Writer { return c.data }
func (c *laneConn) Resp() io.Reader { return c.respQ }

func (c *laneConn) setOnFail(f func(error)) { c.onFail.Store(&f) }

// Close ends the session's tenancy of the lane: an in-band EOS tells the
// child's lane server to finish (it answers with its own reply-EOS, which
// quiesces the lane), the response queue releases the mux receive loop, and
// the lane is handed back to the segment. The shared child is deliberately
// NOT reaped — it keeps serving every other lane.
func (c *laneConn) Close() error {
	c.once.Do(func() {
		c.ls.seg.Cmd().SendEOS(c.lane) // best-effort; the segment may be dead
		c.respQ.close(nil)
		c.ls.release(c)
	})
	return nil
}
