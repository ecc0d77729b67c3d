package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/shm"
)

// The transport sweep isolates the control-channel carrier cost: the same
// procctl sentinel, the same sequential small-block reads, once over the
// pipe pair and once over the shared-memory rings. Read-ahead is disabled in
// both cells — the prefetch window hides the round trip for either carrier,
// and this sweep exists to measure exactly the cost the window hides (the
// same reasoning the parallel sweeps use). Small blocks keep the memcpy
// negligible, so the number is almost purely per-op carrier overhead.

// TransportBlocks are the sweep's default block sizes: the small-block
// regime where the per-frame syscall pair dominates the pipe path.
var TransportBlocks = []int{8, 32, 128}

// TransportResult is one block-size row of the carrier sweep.
type TransportResult struct {
	Block      int
	PipeMicros float64 // µs/op over the pipe carrier
	ShmMicros  float64 // µs/op over the shm ring carrier; 0 if unsupported
}

// Speedup returns pipe/shm — how many times faster the ring carrier is.
func (t TransportResult) Speedup() float64 {
	if t.ShmMicros == 0 {
		return 0
	}
	return t.PipeMicros / t.ShmMicros
}

// TransportOptions configures the carrier sweep.
type TransportOptions struct {
	Ops    int
	Blocks []int     // default TransportBlocks
	Path   CachePath // default PathMemory (the carrier-bound panel)
	Params map[string]string
}

// RunTransports measures sequential procctl reads per block size over both
// carriers. On platforms without shm support the ShmMicros column is zero.
func (r *Runner) RunTransports(opts TransportOptions) ([]TransportResult, error) {
	ops := opts.Ops
	if ops == 0 {
		ops = DefaultOps
	}
	blocks := opts.Blocks
	if len(blocks) == 0 {
		blocks = TransportBlocks
	}
	path := opts.Path
	if path == 0 {
		path = PathMemory
	}

	cell := func(block int, carrier string) (float64, error) {
		params := map[string]string{"transport": carrier, "readahead": "false"}
		for k, v := range opts.Params {
			if k != "transport" && k != "readahead" {
				params[k] = v
			}
		}
		res, err := r.Measure(Config{
			Strategy:  core.StrategyProcCtl,
			Path:      path,
			Op:        OpRead,
			BlockSize: block,
			Ops:       ops,
			Params:    params,
		})
		if err != nil {
			return 0, fmt.Errorf("transport sweep %s/%d: %w", carrier, block, err)
		}
		return res.MicrosPerOp(), nil
	}

	var results []TransportResult
	for _, block := range blocks {
		row := TransportResult{Block: block}
		var err error
		if row.PipeMicros, err = cell(block, "pipe"); err != nil {
			return nil, err
		}
		if shm.Supported() {
			if row.ShmMicros, err = cell(block, "shm"); err != nil {
				return nil, err
			}
		}
		results = append(results, row)
	}
	return results, nil
}

// The syscall-economy cells complement the latency rows: the same procctl
// sentinel driven by 16 pipelined clients, once per carrier, reporting the
// wakeup counters instead of µs/op. Pipelining is what makes the economy
// visible — a sequential client's every frame is a wakeup by construction,
// while 16 concurrent exchanges give both the group-committing batch writer
// and the drain-mode receive loop clumps to amortize.

// TransportEconomyClients is the pipelined client count of the economy
// cells — the sweep's saturating degree.
const TransportEconomyClients = 16

// transportEconomyBlock keeps the economy cells in the small-block regime,
// where per-frame wakeup cost dominates.
const transportEconomyBlock = 64

// TransportEconomy is one carrier's syscall-economy cell.
type TransportEconomy struct {
	Carrier     string // "pipe" or "shm"
	Clients     int
	Block       int
	MicrosPerOp float64 // aggregate, for cross-checking against the latency rows
	Doorbells   uint64  // eventfd doorbells rung (shm; both rings, both sides)
	Suppressed  uint64  // ring wakeups avoided (peer running or flush-coalesced)
	RecvFrames  uint64  // response frames the client receive loop decoded
	RecvWakeups uint64  // read syscalls that delivered them (0 on shm)
	Flushes     uint64  // submission flushes (write syscalls)
	Frames      uint64  // command frames those flushes carried
}

// FramesPerFlush reports command frames per submission flush — the send-side
// group-commit amortization; ok is false when the channel never flushed.
func (e TransportEconomy) FramesPerFlush() (float64, bool) {
	if e.Flushes == 0 {
		return 0, false
	}
	return float64(e.Frames) / float64(e.Flushes), true
}

// DoorbellsPerFrame reports doorbells rung per frame moved across the rings.
// Each exchange is one command frame plus one response frame, so the frame
// total is 2× the decoded response count. Below 1.0 means coalescing and
// running-peer suppression are beating one-wakeup-per-frame; ok is false off
// the shm carrier.
func (e TransportEconomy) DoorbellsPerFrame() (float64, bool) {
	if e.Carrier != "shm" || e.RecvFrames == 0 {
		return 0, false
	}
	return float64(e.Doorbells) / float64(2*e.RecvFrames), true
}

// FramesPerWakeup reports response frames decoded per receive-side read
// syscall — the drain-mode amortization. ok is false when the receive path
// made no reads (the shm carrier).
func (e TransportEconomy) FramesPerWakeup() (float64, bool) {
	if e.RecvWakeups == 0 {
		return 0, false
	}
	return float64(e.RecvFrames) / float64(e.RecvWakeups), true
}

// RunTransportEconomy measures the syscall-economy cell for each supported
// carrier: 16 pipelined clients, small blocks, read-ahead off.
func (r *Runner) RunTransportEconomy(opts TransportOptions) ([]TransportEconomy, error) {
	ops := opts.Ops
	if ops == 0 {
		ops = DefaultOps
	}
	path := opts.Path
	if path == 0 {
		path = PathMemory
	}
	carriers := []string{"pipe"}
	if shm.Supported() {
		carriers = append(carriers, "shm")
	}
	var cells []TransportEconomy
	for _, carrier := range carriers {
		params := map[string]string{"transport": carrier, "readahead": "false"}
		for k, v := range opts.Params {
			if k != "transport" && k != "readahead" {
				params[k] = v
			}
		}
		res, err := r.MeasureParallel(Config{
			Strategy:  core.StrategyProcCtl,
			Path:      path,
			Op:        OpRead,
			BlockSize: transportEconomyBlock,
			Ops:       ops,
			Params:    params,
		}, TransportEconomyClients)
		if err != nil {
			return nil, fmt.Errorf("transport economy %s: %w", carrier, err)
		}
		cells = append(cells, TransportEconomy{
			Carrier:     carrier,
			Clients:     TransportEconomyClients,
			Block:       transportEconomyBlock,
			MicrosPerOp: res.MicrosPerOp(),
			Doorbells:   res.Doorbells,
			Suppressed:  res.Suppressed,
			RecvFrames:  res.RecvFrames,
			RecvWakeups: res.RecvWakeups,
			Flushes:     res.BatchFlushes,
			Frames:      res.BatchFrames,
		})
	}
	return cells, nil
}

// WriteTransportEconomyTable renders the syscall-economy cells.
func WriteTransportEconomyTable(w io.Writer, path CachePath, ops int, cells []TransportEconomy) error {
	if len(cells) == 0 {
		return nil
	}
	if path == 0 {
		path = PathMemory
	}
	if _, err := fmt.Fprintf(w,
		"syscall economy — procctl, %s path, %d pipelined clients, %dB reads (%d ops per cell)\n",
		path, TransportEconomyClients, transportEconomyBlock, ops); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s%10s%12s%12s%12s%12s%13s\n",
		"carrier", "µs/op", "doorbells", "suppressed", "bells/frame", "frames/wake",
		"frames/flush"); err != nil {
		return err
	}
	for _, c := range cells {
		if _, err := fmt.Fprintf(w, "%-10s%10.1f%12d%12d", c.Carrier, c.MicrosPerOp, c.Doorbells, c.Suppressed); err != nil {
			return err
		}
		if dpf, ok := c.DoorbellsPerFrame(); ok {
			if _, err := fmt.Fprintf(w, "%12.3f", dpf); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintf(w, "%12s", "-"); err != nil {
			return err
		}
		if fpw, ok := c.FramesPerWakeup(); ok {
			if _, err := fmt.Fprintf(w, "%12.1f", fpw); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintf(w, "%12s", "-"); err != nil {
			return err
		}
		if fpf, ok := c.FramesPerFlush(); ok {
			if _, err := fmt.Fprintf(w, "%13.2f\n", fpf); err != nil {
				return err
			}
		} else if _, err := fmt.Fprintf(w, "%13s\n", "-"); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteTransportTable renders the carrier sweep with its speedup column.
func WriteTransportTable(w io.Writer, path CachePath, ops int, results []TransportResult) error {
	if len(results) == 0 {
		return nil
	}
	if path == 0 {
		path = PathMemory
	}
	if _, err := fmt.Fprintf(w,
		"transport sweep — procctl sequential reads, %s path, read-ahead off (%d ops per point)\n",
		path, ops); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-10s%12s%12s%12s\n", "block", "pipe µs/op", "shm µs/op", "speedup"); err != nil {
		return err
	}
	for _, row := range results {
		if _, err := fmt.Fprintf(w, "%-10d%12.2f", row.Block, row.PipeMicros); err != nil {
			return err
		}
		if row.ShmMicros > 0 {
			if _, err := fmt.Fprintf(w, "%12.2f%11.2fx\n", row.ShmMicros, row.Speedup()); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%12s%12s\n", "n/a", "n/a"); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
