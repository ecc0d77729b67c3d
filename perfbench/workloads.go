package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/activefile"
	"repro/internal/backend"
	"repro/internal/daemon"
	"repro/internal/remote"
)

// fixture is one provisioned and warmed-up workload: its files, servers and
// open sessions, with the shadow copies reads are checked against.
type fixture interface {
	// client runs client i's closed loop until rec says stop.
	client(i int, rec *recorder)
	// collect reads the layer counters the fixture's sessions and servers
	// expose, before teardown.
	collect(res *phaseResult) error
	// teardown closes every session and server and checks each file's final
	// content against its shadow copy.
	teardown() error
}

// workload is one named load shape.
type workload struct {
	name, why string
	provision func(g *rig) (fixture, error)
	// setups is how many times an untraced run provisions the workload;
	// setup_s is their median. Cheap set-ups that mostly wait on process
	// spawns repeat more often to steady the median.
	setups int
}

var workloads = []workload{
	{"rpc-random", "random block-aligned calls on one shared procctl handle over pipes: every read is a full IPC round trip", provisionRPCRandom, 9},
	{"cached-zipf", "Zipf reads over a remote object larger than the cached program's LRU: cache, remote and backend, no IPC", provisionCachedZipf, 5},
	{"open-stream", "open, stream 1 MiB, write, sync, close per session over shm: sentinel spawn, segment setup and read-ahead", provisionOpenStream, 15},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// clients is the closed-loop client count: one per core on the two-core
// hosts this benchmark targets, so it measures the stack, not the scheduler.
const clients = 2

// warm runs every client for a budget of calls and fails on
// any error; traced phases keep the warm-up's spans.
func warm(f fixture, calls int, g *rig) error {
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := range clients {
		recs[i] = newBudgetRecorder(calls, g.clientTrace(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.client(i, recs[i])
		}(i)
	}
	wg.Wait()
	for _, r := range recs {
		if r.failed > 0 {
			return fmt.Errorf("warm-up: %d failed calls, first: %v", r.failed, r.firstErr)
		}
	}
	return nil
}

// ---- rpc-random ----------------------------------------------------------

const (
	rpcFileSize = 4 << 20
	rpcHalf     = rpcFileSize / clients
	rpcWarm     = 1000
)

// rpcSizes are the paper's Figure 6 block sizes.
var rpcSizes = [...]int64{8, 32, 128, 512, 2048}

type rpcRandom struct {
	g      *rig
	path   string
	h      session
	id     uint64
	shadow []byte
	gens   [clients]*rand.Rand
}

func provisionRPCRandom(g *rig) (fixture, error) {
	f := &rpcRandom{g: g, path: filepath.Join(g.dir, "rpc.af")}
	f.shadow = make([]byte, rpcFileSize)
	fill(g.rng(1, 0), f.shadow)
	def := activefile.Definition{
		Program:  activefile.ProgramSpec{Name: g.program("passthrough")},
		Strategy: activefile.StrategyProcessControl,
		Cache:    activefile.CacheMemory,
		Params:   g.params(map[string]string{}),
	}
	if err := g.create(f.path, def, f.shadow); err != nil {
		return nil, err
	}
	var err error
	if f.h, f.id, err = g.open(f.path); err != nil {
		return nil, err
	}
	for i := range clients {
		f.gens[i] = g.rng(2, uint64(i))
	}
	if err := warm(f, rpcWarm, g); err != nil {
		f.teardown()
		return nil, err
	}
	return f, nil
}

// client issues block-aligned random calls inside its own half of the
// shared file: 80% reads, sizes uniform over rpcSizes.
func (f *rpcRandom) client(i int, rec *recorder) {
	r := f.gens[i]
	base := int64(i) * rpcHalf
	buf := make([]byte, 2048)
	for rec.more() {
		size := rpcSizes[r.IntN(len(rpcSizes))]
		off := base + r.Int64N(rpcHalf/size)*size
		p := buf[:size]
		if r.IntN(100) < 80 {
			begin := time.Now()
			n, err := f.h.ReadAt(p, off)
			end := time.Now()
			rec.op(opRead, begin, end, off, int(size), f.id)
			if err != nil {
				rec.fail(fmt.Errorf("read at %d: %w", off, err))
				continue
			}
			rec.check(p[:n], f.shadow[off:off+size], off)
			continue
		}
		fill(r, p)
		begin := time.Now()
		_, err := f.h.WriteAt(p, off)
		end := time.Now()
		rec.op(opWrite, begin, end, off, int(size), f.id)
		if err != nil {
			rec.fail(fmt.Errorf("write at %d: %w", off, err))
			continue
		}
		copy(f.shadow[off:], p)
	}
}

func (f *rpcRandom) collect(*phaseResult) error { return nil }

func (f *rpcRandom) teardown() error {
	if f.h == nil {
		return nil
	}
	err := errors.Join(f.g.closeSession(f.h, f.id), f.g.seal())
	f.h = nil
	if err != nil {
		return err
	}
	return f.g.verify(f.path, f.shadow)
}

// ---- cached-zipf ---------------------------------------------------------

const (
	zipfObjectSize = 32 << 20
	zipfBlock      = 4096
	zipfBlocks     = zipfObjectSize / zipfBlock
	zipfAccess     = 512
	zipfCacheCap   = 512 // blocks: a 2 MiB LRU against a 32 MiB object
	zipfWarm       = 20000
)

type cachedZipf struct {
	g      *rig
	srv    *remote.FileServer
	reg    *daemon.Registry
	addr   string
	paths  [clients]string
	h      [clients]session
	ids    [clients]uint64
	shadow [clients][]byte
	gens   [clients]*rand.Rand
	zipf   [clients]*rand.Zipf
	perm   [clients][]int
	cache0 cacheStats
}

func provisionCachedZipf(g *rig) (fixture, error) {
	f := &cachedZipf{g: g}
	mem := backend.NewMem()
	var store backend.Backend = mem
	if g.tr != nil {
		store = tracedStore{Mem: mem, tr: g.tr}
	}
	f.reg = daemon.NewRegistry(daemon.Quotas{})
	f.srv = remote.NewFileServerWith(store)
	f.srv.SetRegistry(f.reg)
	var err error
	if f.addr, err = f.srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	for i := range clients {
		name := fmt.Sprintf("zipf/c%d", i)
		f.shadow[i] = make([]byte, zipfObjectSize)
		fill(g.rng(1, uint64(i)), f.shadow[i])
		mem.Put(name, f.shadow[i])
		f.paths[i] = filepath.Join(g.dir, fmt.Sprintf("zipf%d.af", i))
		def := activefile.Definition{
			Program:  activefile.ProgramSpec{Name: g.program("cached")},
			Strategy: activefile.StrategyThread,
			Source:   activefile.SourceSpec{Kind: "tcp", Addr: f.addr, Path: name},
			Params: g.params(map[string]string{
				"blocksize": strconv.Itoa(zipfBlock),
				"blocks":    strconv.Itoa(zipfCacheCap),
			}),
			NoData: true,
		}
		if err := g.create(f.paths[i], def, nil); err != nil {
			f.teardown()
			return nil, err
		}
		if f.h[i], f.ids[i], err = g.open(f.paths[i]); err != nil {
			f.teardown()
			return nil, err
		}
		r := g.rng(2, uint64(i))
		f.gens[i] = r
		f.perm[i] = r.Perm(zipfBlocks)
		f.zipf[i] = rand.NewZipf(r, 1.1, 1, zipfBlocks-1)
	}
	if err := warm(f, zipfWarm, g); err != nil {
		f.teardown()
		return nil, err
	}
	if f.cache0, err = f.cacheStats(); err != nil {
		f.teardown()
		return nil, err
	}
	return f, nil
}

// client makes 512-byte calls into Zipf-ranked 4 KiB blocks of its own
// object: 90% reads, write-through writes.
func (f *cachedZipf) client(i int, rec *recorder) {
	r, z, perm, h, shadow := f.gens[i], f.zipf[i], f.perm[i], f.h[i], f.shadow[i]
	buf := make([]byte, zipfAccess)
	for rec.more() {
		block := int64(perm[z.Uint64()])
		off := block*zipfBlock + r.Int64N(zipfBlock/zipfAccess)*zipfAccess
		if r.IntN(100) < 90 {
			begin := time.Now()
			n, err := h.ReadAt(buf, off)
			end := time.Now()
			rec.op(opRead, begin, end, off, zipfAccess, f.ids[i])
			if err != nil {
				rec.fail(fmt.Errorf("read at %d: %w", off, err))
				continue
			}
			rec.check(buf[:n], shadow[off:off+zipfAccess], off)
			continue
		}
		fill(r, buf)
		begin := time.Now()
		_, err := h.WriteAt(buf, off)
		end := time.Now()
		rec.op(opWrite, begin, end, off, zipfAccess, f.ids[i])
		if err != nil {
			rec.fail(fmt.Errorf("write at %d: %w", off, err))
			continue
		}
		copy(shadow[off:], buf)
	}
}

// cacheStats is the cached program's LRU counters, summed over clients.
type cacheStats struct{ hits, misses, evictions float64 }

func (f *cachedZipf) cacheStats() (cacheStats, error) {
	var s cacheStats
	for _, h := range f.h {
		reply, err := h.Control([]byte("stats"))
		if err != nil {
			return s, fmt.Errorf("cache stats: %w", err)
		}
		for _, kv := range strings.Fields(string(reply)) {
			k, v, _ := strings.Cut(kv, "=")
			x, _ := strconv.ParseFloat(v, 64)
			switch k {
			case "hits":
				s.hits += x
			case "misses":
				s.misses += x
			case "evictions":
				s.evictions += x
			}
		}
	}
	return s, nil
}

func (f *cachedZipf) collect(res *phaseResult) error {
	s, err := f.cacheStats()
	if err != nil {
		return err
	}
	hits, misses, evictions := s.hits-f.cache0.hits, s.misses-f.cache0.misses, s.evictions-f.cache0.evictions
	ops := float64(res.attempted)
	res.layer["cache.hit_ratio"] = hits / max(hits+misses, 1)
	res.layer["cache.misses_per_op"] = misses / max(ops, 1)
	res.layer["cache.evictions_per_op"] = evictions / max(ops, 1)
	for _, op := range f.reg.Snapshot().Ops {
		switch op.Op {
		case "read":
			res.layer["remote.server_read_us_p50"] = op.P50Micros
		case "write":
			res.layer["remote.server_write_us_p50"] = op.P50Micros
		}
	}
	if f.g.tr != nil {
		return f.probeRemote()
	}
	return nil
}

// probeRemote times the driver's own 4 KiB reads against the same server,
// bypassing program and cache.
func (f *cachedZipf) probeRemote() error {
	c, err := remote.Dial(f.addr, "zipf/c0")
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, zipfBlock)
	r := f.g.rng(3, 0)
	for range 2000 {
		off := r.Int64N(zipfBlocks) * zipfBlock
		begin := time.Now()
		if _, err := c.ReadAt(buf, off); err != nil {
			return fmt.Errorf("remote probe: %w", err)
		}
		f.g.tr.add("remote.read", 0, begin, time.Now(), len(buf))
	}
	return nil
}

func (f *cachedZipf) teardown() error {
	var errs []error
	for i, h := range f.h {
		if h != nil {
			errs = append(errs, f.g.closeSession(h, f.ids[i]))
			f.h[i] = nil
		}
	}
	errs = append(errs, f.g.seal())
	if errors.Join(errs...) == nil {
		for i, p := range f.paths {
			if f.shadow[i] != nil && p != "" {
				errs = append(errs, f.g.verify(p, f.shadow[i]))
			}
		}
	}
	if f.srv != nil {
		errs = append(errs, f.srv.Close())
	}
	return errors.Join(errs...)
}

// ---- open-stream ---------------------------------------------------------

const (
	streamFileSize = 1 << 20
	streamBlock    = 2048
	streamWarm     = 2 // sessions per client
	// streamCalls is one session's application calls: the reads, the read
	// that meets EOF, and the write.
	streamCalls = streamFileSize/streamBlock + 2
)

type openStream struct {
	g      *rig
	paths  [clients]string
	shadow [clients][]byte
	gens   [clients]*rand.Rand
}

func provisionOpenStream(g *rig) (fixture, error) {
	f := &openStream{g: g}
	for i := range clients {
		f.paths[i] = filepath.Join(g.dir, fmt.Sprintf("stream%d.af", i))
		f.shadow[i] = make([]byte, streamFileSize)
		fill(g.rng(1, uint64(i)), f.shadow[i])
		def := activefile.Definition{
			Program:  activefile.ProgramSpec{Name: g.program("passthrough")},
			Strategy: activefile.StrategyProcessControl,
			Cache:    activefile.CacheNone,
			Params:   g.params(map[string]string{"transport": "shm"}),
		}
		if err := g.create(f.paths[i], def, f.shadow[i]); err != nil {
			return nil, err
		}
		f.gens[i] = g.rng(2, uint64(i))
	}
	if err := warm(f, streamWarm*streamCalls, g); err != nil {
		return nil, err
	}
	return f, nil
}

// client runs whole sessions back to back: Open, sequential 2 KiB reads to
// EOF, one seeded 2 KiB WriteAt, Sync, Close. A failed session (a carrier
// fallback included) fails the run and ends the client.
func (f *openStream) client(i int, rec *recorder) {
	stream := make([]byte, streamFileSize+streamBlock)
	wbuf := make([]byte, streamBlock)
	r := f.gens[i]
	for rec.more() {
		off := r.Int64N(streamFileSize/streamBlock) * streamBlock
		fill(r, wbuf)
		if err := f.session(i, rec, stream, off, wbuf); err != nil {
			rec.fail(err)
			return
		}
	}
}

func (f *openStream) session(i int, rec *recorder, stream []byte, woff int64, wbuf []byte) error {
	g := f.g
	begin := time.Now()
	h, id, err := g.open(f.paths[i])
	if err != nil {
		rec.attempted++
		return fmt.Errorf("open: %w", err)
	}
	pos := 0
	first := true
	for {
		rb := time.Now()
		n, err := h.Read(stream[pos : pos+streamBlock])
		re := time.Now()
		rec.op(opRead, rb, re, int64(pos), streamBlock, id)
		if first {
			first = false
			if rec.inWindow(re) {
				rec.opens.add(re.Sub(begin))
			}
			if g.tr != nil {
				g.tr.add("core.first_read", id, rb, re, n)
			}
		}
		pos += n
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			g.closeSession(h, id)
			return fmt.Errorf("read at %d: %w", pos, err)
		}
		if pos > streamFileSize {
			g.closeSession(h, id)
			return fmt.Errorf("stream longer than %d bytes", streamFileSize)
		}
	}
	wb := time.Now()
	_, werr := h.WriteAt(wbuf, woff)
	we := time.Now()
	rec.op(opWrite, wb, we, woff, streamBlock, id)
	serr := h.Sync()
	cerr := g.closeSession(h, id)
	end := time.Now()
	rec.last = end
	if rec.inWindow(end) {
		rec.sessions.add(end.Sub(begin))
	}
	if err := errors.Join(werr, serr, cerr); err != nil {
		return err
	}
	// Whole-stream check against the shadow, outside every timed interval,
	// then apply the write to the shadow.
	rec.check(stream[:pos], f.shadow[i], 0)
	copy(f.shadow[i][woff:], wbuf)
	return nil
}

func (f *openStream) collect(*phaseResult) error { return nil }

func (f *openStream) teardown() error {
	errs := []error{f.g.seal()}
	for i, p := range f.paths {
		if f.shadow[i] != nil {
			errs = append(errs, f.g.verify(p, f.shadow[i]))
		}
	}
	return errors.Join(errs...)
}
