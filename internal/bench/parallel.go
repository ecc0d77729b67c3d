package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
)

// ParallelDegrees are the client counts of the concurrency sweep: the
// sequential anchor, a small pool, and enough clients to saturate the
// session pipeline.
var ParallelDegrees = []int{1, 4, 16}

// ParallelResult is one measured (cell, degree) point: cfg.Ops operations
// were spread over Parallel concurrent clients and took Total wall-clock
// time, so MicrosPerOp reports aggregate (not per-client) cost — lower means
// more throughput.
type ParallelResult struct {
	Config
	Parallel int
	Total    time.Duration
	// BatchFrames/BatchFlushes snapshot the command channel's vectored-write
	// amortization over the run, for strategies that batch (procctl): frames
	// submitted versus write syscalls issued. Zero when the strategy has no
	// batched command channel.
	BatchFrames  uint64
	BatchFlushes uint64
	// RecvFrames/RecvWakeups snapshot the receive path's drain amortization:
	// response frames decoded versus read syscalls that delivered them.
	// RecvWakeups is zero on the shm carrier, whose hot path makes no read
	// syscalls at all.
	RecvFrames  uint64
	RecvWakeups uint64
	// Doorbells/Suppressed snapshot the shm rings' wakeup economy (both
	// directions, both processes); zero off the shm carrier.
	Doorbells  uint64
	Suppressed uint64
}

// FramesPerFlush reports how many command frames each flush syscall carried
// on average — 1.0 means no coalescing, N means a 1/N syscall-per-op rate.
// ok is false when the cell's transport does not batch.
func (r ParallelResult) FramesPerFlush() (float64, bool) {
	if r.BatchFlushes == 0 {
		return 0, false
	}
	return float64(r.BatchFrames) / float64(r.BatchFlushes), true
}

// FramesPerWakeup reports how many response frames each receive-side read
// syscall delivered on average — the drain-mode mirror of FramesPerFlush.
// ok is false when the cell's transport issued no receive reads (either it
// has no framed channel, or it runs on shm rings where the receive path is
// syscall-free).
func (r ParallelResult) FramesPerWakeup() (float64, bool) {
	if r.RecvWakeups == 0 {
		return 0, false
	}
	return float64(r.RecvFrames) / float64(r.RecvWakeups), true
}

// MicrosPerOp returns the aggregate wall-clock cost per operation in
// microseconds.
func (r ParallelResult) MicrosPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Total.Nanoseconds()) / float64(r.Ops) / 1e3
}

// MeasureParallel runs one cell with `parallel` concurrent clients hammering
// a single handle, the workload the concurrent session core exists for: every
// client issues positioned operations on its own disjoint block-aligned
// stripe, so results are deterministic while the transport sees `parallel`
// exchanges in flight. Only positioning strategies qualify — the plain
// process strategy's streams are strictly ordered, so concurrency is not
// meaningful there.
func (r *Runner) MeasureParallel(cfg Config, parallel int) (ParallelResult, error) {
	if parallel < 1 {
		return ParallelResult{}, fmt.Errorf("bench: parallel degree %d", parallel)
	}
	if !cfg.Strategy.SupportsPositioning() {
		return ParallelResult{}, fmt.Errorf("bench: %v strategy has no positioned ops to parallelize", cfg.Strategy)
	}
	if cfg.Ops == 0 {
		cfg.Ops = DefaultOps
	}
	h, size, cleanup, err := r.Setup(cfg)
	if err != nil {
		return ParallelResult{}, err
	}
	defer cleanup()

	// Partition the op count across clients; every client walks its own
	// stripe of block-aligned offsets.
	perClient := cfg.Ops / parallel
	extra := cfg.Ops % parallel
	errs := make(chan error, parallel)
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < parallel; c++ {
		ops := perClient
		if c < extra {
			ops++
		}
		if ops == 0 {
			continue
		}
		wg.Add(1)
		go func(client, ops int) {
			defer wg.Done()
			buf := make([]byte, cfg.BlockSize)
			for i := 0; i < ops; i++ {
				// Stride clients across the file so their blocks never
				// overlap within a round.
				off := (int64(i*parallel+client) * int64(cfg.BlockSize)) % size
				var err error
				if cfg.Op == OpRead {
					_, err = h.ReadAt(buf, off)
				} else {
					_, err = h.WriteAt(buf, off)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d %s op %d (%v/%v/%d): %w",
						client, cfg.Op, i, cfg.Strategy, cfg.Path, cfg.BlockSize, err)
					return
				}
			}
		}(c, ops)
	}
	wg.Wait()
	total := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return ParallelResult{}, err
	}
	res := ParallelResult{Config: cfg, Parallel: parallel, Total: total}
	if bs, ok := h.BatchStats(); ok {
		res.BatchFrames, res.BatchFlushes = bs.Frames, bs.Flushes
	}
	if ds, ok := h.DataPlaneStats(); ok {
		res.RecvFrames, res.RecvWakeups = ds.RecvFrames, ds.RecvWakeups
		res.Doorbells, res.Suppressed = ds.Doorbells, ds.Suppressed
	}
	return res, nil
}

// ParallelOptions adjust a concurrency sweep.
type ParallelOptions struct {
	// RemoteLatency is injected into every remote-service operation for the
	// sweep's duration, simulating a distant source. Overlapping such waits
	// is the concurrency core's reason to exist, so a realistic latency makes
	// the pipelining gain visible even on few cores. 0 leaves the service
	// untouched.
	RemoteLatency time.Duration
	// Ops per data point; 0 means DefaultOps.
	Ops int
	// BlockSize for every point; 0 means 512.
	BlockSize int
	// Degrees to sweep; nil means ParallelDegrees.
	Degrees []int
	// Path selects the storage tier; 0 means the in-memory cache, where
	// transport overhead — the thing concurrency hides — dominates.
	Path CachePath
	// OpsFilter limits to one operation; 0 means both.
	OpsFilter Op
	// Params are extra program parameters applied to every cell (e.g.
	// readahead/writebehind toggles), so the sweep can isolate transport
	// pipelining from data-path coalescing.
	Params map[string]string
}

// ParallelPanel is one concurrency sweep: a series per strategy, a column per
// degree.
type ParallelPanel struct {
	Path    CachePath
	Op      Op
	Block   int
	Degrees []int
	// Micros[strategy][degree] is the aggregate µs/op.
	Micros map[string]map[int]float64
	// FramesPerFlush[strategy][degree] is the command-channel batching
	// amortization, present only for strategies that batch (procctl).
	FramesPerFlush map[string]map[int]float64
	// FramesPerWakeup[strategy][degree] is the receive-side drain
	// amortization — response frames per read syscall — present only for
	// strategies with a framed channel that makes receive reads (procctl
	// over pipes).
	FramesPerWakeup map[string]map[int]float64
}

// Speedup returns strategy's throughput gain at degree relative to its
// sequential (degree-1) anchor.
func (p *ParallelPanel) Speedup(strategy string, degree int) (float64, bool) {
	series, ok := p.Micros[strategy]
	if !ok {
		return 0, false
	}
	base, okBase := series[1]
	at, okAt := series[degree]
	if !okBase || !okAt || at == 0 {
		return 0, false
	}
	return base / at, true
}

// WriteTable renders the sweep as an aligned text table, one row per
// strategy: aggregate µs/op per degree, then the speedup at the highest
// degree.
func (p *ParallelPanel) WriteTable(w io.Writer) error {
	maxDeg := p.Degrees[len(p.Degrees)-1]
	if _, err := fmt.Fprintf(w, "parallel clients — %s %s, %dB blocks (aggregate µs/op)\n",
		p.Path, p.Op, p.Block); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s", "strategy"); err != nil {
		return err
	}
	for _, d := range p.Degrees {
		if _, err := fmt.Fprintf(w, "%10s", fmt.Sprintf("x%d", d)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%12s%14s%14s\n",
		fmt.Sprintf("speedup@%d", maxDeg), fmt.Sprintf("frames/wr@%d", maxDeg),
		fmt.Sprintf("frames/wk@%d", maxDeg)); err != nil {
		return err
	}
	for _, strategy := range []string{"procctl", "thread", "direct"} {
		series, ok := p.Micros[strategy]
		if !ok {
			continue
		}
		if _, err := fmt.Fprintf(w, "%-10s", strategy); err != nil {
			return err
		}
		for _, d := range p.Degrees {
			if v, ok := series[d]; ok {
				if _, err := fmt.Fprintf(w, "%10.1f", v); err != nil {
					return err
				}
			} else if _, err := fmt.Fprintf(w, "%10s", "-"); err != nil {
				return err
			}
		}
		if s, ok := p.Speedup(strategy, maxDeg); ok {
			if _, err := fmt.Fprintf(w, "%11.2fx", s); err != nil {
				return err
			}
		}
		if fpf, ok := p.FramesPerFlush[strategy][maxDeg]; ok {
			if _, err := fmt.Fprintf(w, "%14.1f", fpf); err != nil {
				return err
			}
		}
		if fpw, ok := p.FramesPerWakeup[strategy][maxDeg]; ok {
			if _, err := fmt.Fprintf(w, "%14.1f", fpw); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RunParallel sweeps the positioning strategies across the requested
// concurrency degrees and returns one panel per operation.
func (r *Runner) RunParallel(opts ParallelOptions) ([]*ParallelPanel, error) {
	degrees := opts.Degrees
	if degrees == nil {
		degrees = ParallelDegrees
	}
	block := opts.BlockSize
	if block == 0 {
		block = 512
	}
	path := opts.Path
	if path == 0 {
		path = PathMemory
	}
	operations := []Op{OpRead, OpWrite}
	if opts.OpsFilter != 0 {
		operations = []Op{opts.OpsFilter}
	}
	strategies := []core.Strategy{core.StrategyProcCtl, core.StrategyThread, core.StrategyDirect}

	if opts.RemoteLatency > 0 {
		r.SetRemoteLatency(opts.RemoteLatency)
		defer r.SetRemoteLatency(0)
	}

	var panels []*ParallelPanel
	for _, op := range operations {
		panel := &ParallelPanel{
			Path:            path,
			Op:              op,
			Block:           block,
			Degrees:         degrees,
			Micros:          make(map[string]map[int]float64),
			FramesPerFlush:  make(map[string]map[int]float64),
			FramesPerWakeup: make(map[string]map[int]float64),
		}
		for _, strategy := range strategies {
			series := make(map[int]float64)
			amort := make(map[int]float64)
			drain := make(map[int]float64)
			for _, degree := range degrees {
				res, err := r.MeasureParallel(Config{
					Strategy:  strategy,
					Path:      path,
					Op:        op,
					BlockSize: block,
					Ops:       opts.Ops,
					Params:    opts.Params,
				}, degree)
				if err != nil {
					return nil, err
				}
				series[degree] = res.MicrosPerOp()
				if fpf, ok := res.FramesPerFlush(); ok {
					amort[degree] = fpf
				}
				if fpw, ok := res.FramesPerWakeup(); ok {
					drain[degree] = fpw
				}
			}
			panel.Micros[strategy.String()] = series
			if len(amort) > 0 {
				panel.FramesPerFlush[strategy.String()] = amort
			}
			if len(drain) > 0 {
				panel.FramesPerWakeup[strategy.String()] = drain
			}
		}
		panels = append(panels, panel)
	}
	return panels, nil
}
