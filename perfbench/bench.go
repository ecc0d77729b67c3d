package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a legacy application sees; they come only from
// untraced runs and are the ones BENCHMARK.json gates.
var endToEnd = []metricDef{
	{"read_mean_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are reported by the traced run (--trace 1). The first group are
// end-to-end figures that are workload-specific, zero by construction or do
// not repeat within a gate's bound (read_p50_us: open-stream's median read
// is a sub-microsecond copy out of the read-ahead window; write_p99_us:
// open-stream makes one write per session); they are reported from the
// traced run's untraced phase. The rest are per-layer: counters the code exposes and
// spans timed from benchmark-owned code. A layer a workload does not touch
// reports 0.
var perLayer = []metricDef{
	{"read_p50_us", "us"},
	{"write_p99_us", "us"},
	{"open_p50_ms", "ms"},
	{"open_p99_ms", "ms"},
	{"session_p50_ms", "ms"},
	{"error_rate", "ratio"},
	{"sentinel_rss_mb", "MB"},
	{"vfs.load_us", "us"},
	{"core.open_call_us", "us"},
	{"core.first_read_us", "us"},
	{"core.close_ms", "ms"},
	{"ipc.self_us_p50", "us"},
	{"ipc.self_us_p99", "us"},
	{"wire.frames_per_flush", "ratio"},
	{"wire.frames_per_wakeup", "ratio"},
	{"shm.doorbells_per_frame", "ratio"},
	{"shm.suppressed_per_frame", "ratio"},
	{"shm.fds_per_session", "count"},
	{"core.carrier_fallbacks", "count"},
	{"core.handler_calls_per_read", "ratio"},
	{"core.handler_bytes_per_read_byte", "ratio"},
	{"program.read_us_p50", "us"},
	{"program.read_us_p99", "us"},
	{"program.write_us_p50", "us"},
	{"cache.hit_ratio", "ratio"},
	{"cache.misses_per_op", "ratio"},
	{"cache.evictions_per_op", "ratio"},
	{"remote.read_us_p50", "us"},
	{"remote.server_read_us_p50", "us"},
	{"remote.server_write_us_p50", "us"},
	{"backend.read_us_p50", "us"},
	{"backend.write_us_p50", "us"},
	{"client.allocs_per_op", "count"},
	{"cpu.driver_us_per_op", "us"},
	{"cpu.sentinel_us_per_op", "us"},
	{"trace.overhead", "ratio"},
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // the whole measuring time of the run
	trace    bool
	dir      string // scratch directory, emptied first
	setups   int    // set-ups of an untraced run; 0 means the workload's own count
}

// phaseResult is what one provisioned-and-measured phase produced.
type phaseResult struct {
	setups                         []time.Duration
	reads, writes, opens, sessions *hist
	rates                          []float64 // ops/s in each window bucket
	attempted, failed              int64
	firstErr                       error
	layer                          map[string]float64
	peakRSS, sentinelRSS           float64
	stealPct                       float64
	calm, buckets                  int // window seconds the metrics cover, of all
	driverCPU, sentinelCPU         time.Duration
	mallocs                        uint64
	spans                          []span
}

// measured is one metric's value with its sample count.
type measured struct {
	metricDef
	value   float64
	samples int
	beyond  int // samples above p99, for p99 metrics
}

// result is a whole run's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int64
	failed    int64
	firstErr  error
	metrics   []measured
	host      hostInfo
	spanCount map[string]int
	rates     []float64 // ops/s of each calm window bucket, untraced run
	calm      int       // calm buckets of the untraced run, of buckets
	buckets   int
	stream    []string  // client 0's first calls and first writes, traced phase
	setups    []float64 // each set-up's seconds, untraced run
	peakRSS   float64   // driver VmHWM at the end of a traced run
}

func runBench(cfg config) (*result, error) {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(cfg.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if err := primeRuntime(); err != nil {
		return nil, err
	}
	host := fingerprint()
	res := &result{workload: w.name, host: host}
	g := &rig{seed: cfg.seed, host: &res.host}

	if !cfg.trace {
		setups := cfg.setups
		if setups == 0 {
			setups = w.setups
		}
		ph, err := runPhase(w, g, cfg.dir, cfg.window, setups)
		if err != nil {
			return nil, err
		}
		res.absorb(ph, g)
		res.host.StealPct = ph.stealPct
		res.rates, res.calm, res.buckets = ph.rates, ph.calm, ph.buckets
		res.setups = ph.setupSeconds()
		res.metrics = endToEndMetrics(ph)
		return res, nil
	}

	// Traced run: an untraced phase, then a traced phase of equal length;
	// the ratio of their throughputs is the tracing overhead.
	half := cfg.window / 2
	plain, err := runPhase(w, g, filepath.Join(cfg.dir, "untraced"), half, 1)
	if err != nil {
		return nil, err
	}
	res.absorb(plain, g)
	res.host.StealPct = plain.stealPct
	tdir := filepath.Join(cfg.dir, "traced")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	tg := &rig{seed: cfg.seed, host: &res.host, tr: newTracer(filepath.Join(tdir, "sentinel-calls.bin"))}
	traced, err := runPhase(w, tg, tdir, half, 1)
	if err != nil {
		return nil, err
	}
	res.absorb(traced, tg)
	res.peakRSS = peakRSSMB()
	if traced.spans, err = tg.tr.assemble(); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.dir, "spans.csv"), traced.spans); err != nil {
		return nil, err
	}
	writes := 0
	for i, a := range tg.tr.clients[0].app {
		if i < 64 || (a.kind == opWrite && writes < 16) {
			res.stream = append(res.stream, fmt.Sprintf("%d@%d/%d", a.kind, a.off, a.n))
		}
		if a.kind == opWrite {
			writes++
		}
	}
	res.metrics, res.spanCount = perLayerMetrics(plain, traced, tg.tr, len(g.fallbacks)+len(tg.fallbacks))
	return res, nil
}

// absorb folds a phase's counts and carrier ledger into the run's verdict.
func (r *result) absorb(ph *phaseResult, g *rig) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	if r.firstErr == nil {
		r.firstErr = ph.firstErr
	}
	r.correct = r.failed == 0 && len(g.fallbacks) == 0 && ph.attempted > 0
	switch {
	case r.firstErr != nil:
	case len(g.fallbacks) > 0:
		r.firstErr = fmt.Errorf("carrier fallback: %s", g.fallbacks[0])
	case ph.attempted == 0:
		r.firstErr = fmt.Errorf("no call completed in the window")
	}
}

// runPhase provisions the workload `setups` times (tearing down all but the
// last), measures the last for window with the closed-loop clients, then
// tears it down and checks nothing leaked.
func runPhase(w workload, g *rig, dir string, window time.Duration, setups int) (*phaseResult, error) {
	ph := &phaseResult{layer: map[string]float64{}, reads: newHist(), writes: newHist(), opens: newHist(), sessions: newHist()}
	base := snapshotLeaks()
	var f fixture
	for k := range setups {
		g.dir = filepath.Join(dir, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(g.dir, 0o755); err != nil {
			return nil, err
		}
		begin := time.Now()
		var err error
		f, err = w.provision(g)
		ph.setups = append(ph.setups, time.Since(begin))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if k == setups-1 {
			break
		}
		if err := f.teardown(); err != nil {
			return nil, fmt.Errorf("%s: teardown: %w", w.name, err)
		}
		if err := checkTeardown(base); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if err := os.RemoveAll(g.dir); err != nil {
			return nil, err
		}
		// Keep one set-up's garbage out of the next one's memory figures.
		f = nil
		debug.FreeOSMemory()
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d0, s0 := driverCPU(), sentinelCPU()
	t0, st0 := cpuTicks()
	start := time.Now()
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	for i := range clients {
		recs[i] = newWindowRecorder(start, window, g.clientTrace(i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.client(i, recs[i])
		}(i)
	}
	steal := sampleSteal(start, recs[0].bucket, len(recs[0].perBucket))
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	if t1, st1 := cpuTicks(); t1 > t0 {
		ph.stealPct = 100 * float64(st1-st0) / float64(t1-t0)
	}
	ph.driverCPU, ph.sentinelCPU = driverCPU()-d0, sentinelCPU()-s0
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.peakRSS = peakRSSMB()

	// The metrics cover the calm seconds of the window: those in which the
	// hypervisor stole under calmStealPct of the CPU time. When fewer than a
	// third are calm, they cover every second.
	stolen := <-steal
	ph.buckets = len(stolen)
	var calm []int
	for i, pct := range stolen {
		if pct < calmStealPct {
			calm = append(calm, i)
		}
	}
	if 3*len(calm) < len(stolen) {
		calm = calm[:0]
		for i := range stolen {
			calm = append(calm, i)
		}
	}
	ph.calm = len(calm)
	for _, r := range recs {
		ph.opens.merge(r.opens)
		ph.sessions.merge(r.sessions)
		ph.attempted += r.attempted
		ph.failed += r.failed
		if ph.firstErr == nil {
			ph.firstErr = r.firstErr
		}
	}
	for _, i := range calm {
		n := int64(0)
		for _, r := range recs {
			ph.reads.merge(r.reads[i])
			ph.writes.merge(r.writes[i])
			n += r.perBucket[i]
		}
		ph.rates = append(ph.rates, float64(n)/recs[0].bucket.Seconds())
	}

	cerr := f.collect(ph)
	terr := f.teardown()
	if err := errors.Join(cerr, terr); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := checkTeardown(base); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	// Every sentinel of the phase is reaped now; a later traced phase's
	// sentinels must not count.
	ph.sentinelRSS = sentinelMaxRSSMB()
	return ph, os.RemoveAll(g.dir)
}

// calmStealPct is the stolen share of CPU time below which a second of the
// window counts as calm. An idle host steals under 1%; a contended one
// steals 10-30% and slows every workload by as much as half.
const calmStealPct = 3

// sampleSteal reads the host's stolen CPU share for each of n buckets of the
// window starting at start, and sends the shares when the window is over.
func sampleSteal(start time.Time, bucket time.Duration, n int) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		shares := make([]float64, n)
		prevT, prevS := cpuTicks()
		for i := range shares {
			time.Sleep(time.Until(start.Add(time.Duration(i+1) * bucket)))
			t, s := cpuTicks()
			if t > prevT {
				shares[i] = 100 * float64(s-prevS) / float64(t-prevT)
			}
			prevT, prevS = t, s
		}
		out <- shares
	}()
	return out
}

func (ph *phaseResult) setupSeconds() []float64 {
	out := make([]float64, len(ph.setups))
	for i, d := range ph.setups {
		out[i] = d.Seconds()
	}
	return out
}

func (ph *phaseResult) ops() float64 { return float64(ph.reads.n + ph.writes.n) }

func endToEndMetrics(ph *phaseResult) []measured {
	setups := ph.setupSeconds()
	vals := map[string]measured{
		"write_p50_us": {value: ph.writes.quantile(0.5, time.Microsecond), samples: ph.writes.n},
		"ops_per_s":    {value: median(ph.rates), samples: len(ph.rates)},
		"setup_s":      {value: median(setups), samples: len(setups)},
		"peak_rss_mb":  {value: ph.peakRSS, samples: 1},
		"read_p99_us":  {value: ph.reads.quantile(0.99, time.Microsecond), samples: ph.reads.n, beyond: ph.reads.beyondP99()},
		"read_mean_us": {value: ph.reads.mean(time.Microsecond), samples: ph.reads.n},
	}
	return ordered(endToEnd, vals)
}

// ordered lays vals out in the order of defs, with zero for any missing.
func ordered(defs []metricDef, vals map[string]measured) []measured {
	out := make([]measured, len(defs))
	for i, d := range defs {
		m := vals[d.name]
		m.metricDef = d
		out[i] = m
	}
	return out
}

func perLayerMetrics(plain, traced *phaseResult, tr *tracer, fallbacks int) ([]measured, map[string]int) {
	vals := map[string]measured{}
	set := func(name string, v float64, n int) { vals[name] = measured{value: v, samples: n} }

	p99 := func(name string, h *hist, unit time.Duration) {
		vals[name] = measured{value: h.quantile(0.99, unit), samples: h.n, beyond: h.beyondP99()}
	}
	set("read_p50_us", plain.reads.quantile(0.5, time.Microsecond), plain.reads.n)
	p99("write_p99_us", plain.writes, time.Microsecond)
	set("open_p50_ms", plain.opens.quantile(0.5, time.Millisecond), plain.opens.n)
	p99("open_p99_ms", plain.opens, time.Millisecond)
	set("session_p50_ms", plain.sessions.quantile(0.5, time.Millisecond), plain.sessions.n)
	attempted := plain.attempted + traced.attempted
	set("error_rate", float64(plain.failed+traced.failed)/float64(max(attempted, 1)), int(attempted))
	set("sentinel_rss_mb", plain.sentinelRSS, 1)
	set("core.carrier_fallbacks", float64(fallbacks), 1)
	ops := max(plain.ops(), 1)
	set("client.allocs_per_op", float64(plain.mallocs)/ops, int(plain.ops()))
	set("cpu.driver_us_per_op", float64(plain.driverCPU)/float64(time.Microsecond)/ops, int(plain.ops()))
	set("cpu.sentinel_us_per_op", float64(plain.sentinelCPU)/float64(time.Microsecond)/ops, int(plain.ops()))
	for k, v := range plain.layer {
		set(k, v, 1)
	}
	set("trace.overhead", median(traced.rates)/max(median(plain.rates), 1), len(traced.rates))

	// Span-derived layers.
	spans := traced.spans
	self := selfTimes(spans)
	byName := map[string][]time.Duration{}
	var ipcSelf []time.Duration
	bytesByName := map[string]int{}
	counts := map[string]int{}
	for i, s := range spans {
		byName[s.name] = append(byName[s.name], time.Duration(s.dur()))
		if s.name == "ipc" {
			ipcSelf = append(ipcSelf, time.Duration(self[i]))
		}
		bytesByName[s.name] += int(s.bytes)
		counts[s.name]++
	}
	us := func(name string) dist { return newDist(byName[name], time.Microsecond) }
	setP50 := func(metric, span string) { d := us(span); set(metric, d.p50(), len(d)) }
	setP50("vfs.load_us", "vfs.load")
	setP50("core.open_call_us", "core.open")
	setP50("core.first_read_us", "core.first_read")
	cl := newDist(byName["core.close"], time.Millisecond)
	set("core.close_ms", cl.p50(), len(cl))
	ipc := newDist(ipcSelf, time.Microsecond)
	set("ipc.self_us_p50", ipc.p50(), len(ipc))
	vals["ipc.self_us_p99"] = measured{value: ipc.p99(), samples: len(ipc), beyond: ipc.beyondP99()}
	pr := us("program.read")
	set("program.read_us_p50", pr.p50(), len(pr))
	vals["program.read_us_p99"] = measured{value: pr.p99(), samples: len(pr), beyond: pr.beyondP99()}
	setP50("program.write_us_p50", "program.write")
	setP50("remote.read_us_p50", "remote.read")
	setP50("backend.read_us_p50", "backend.read")
	setP50("backend.write_us_p50", "backend.write")
	appReads := counts["core.read"]
	set("core.handler_calls_per_read", float64(counts["program.read"])/float64(max(appReads, 1)), appReads)
	set("core.handler_bytes_per_read_byte", float64(bytesByName["program.read"])/float64(max(bytesByName["core.read"], 1)), appReads)

	// Command-channel counters of the traced procctl sessions.
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	frames := tr.frames + tr.recvFrames
	set("wire.frames_per_flush", ratio(tr.frames, tr.flushes), int(tr.flushes))
	set("wire.frames_per_wakeup", ratio(tr.recvFrames, tr.recvWakeups), int(tr.recvWakeups))
	set("shm.doorbells_per_frame", ratio(tr.doorbells, frames), int(frames))
	set("shm.suppressed_per_frame", ratio(tr.suppressed, frames), int(frames))
	set("shm.fds_per_session", median(tr.fdsPerSession), len(tr.fdsPerSession))
	return ordered(perLayer, vals), counts
}

// layersOf lists the distinct layer prefixes (text before the first dot)
// of the span names seen.
func layersOf(counts map[string]int) []string {
	seen := map[string]bool{}
	for name := range counts {
		layer, _, _ := strings.Cut(name, ".")
		seen[layer] = true
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
