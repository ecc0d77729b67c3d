package bench

import (
	"encoding/json"
	"io"
	"os"
	"sort"

	"repro/internal/core"
)

// JSON report schema identifier; bump when the layout changes. v2 added the
// optional parallel (with frames-per-flush batching amortization) and churn
// (open latency) sections; v3 added the transport (pipe-vs-shm carrier)
// sweep; v4 added the per-backend sweep; v5 added the syscall-economy cells
// (doorbell and drain-mode wakeup counters) and the frames-per-wakeup column
// in parallel cells; v6 added the many-tenant session sweep (concurrent
// sessions, quota rejections, drain latency); v7 added the sharded-fleet
// scaling sweep (aggregate throughput vs shard count, hot-file replication);
// v8 added the fleet-scale session sweep (MPSC lane multiplexing with
// descriptor deltas) and the submitter/frames-per-flush columns on the
// syscall-economy cells; the submitter column has since been dropped, and
// reports that carry it still load. Older reports remain loadable for
// comparison.
const ReportSchema = "afbench/v8"

// Report is the machine-readable form of a benchmark run, written by
// afbench -json so successive PRs can diff per-cell numbers instead of
// eyeballing text tables.
type Report struct {
	Schema string            `json:"schema"`
	Ops    int               `json:"opsPerPoint"`
	Params map[string]string `json:"params,omitempty"`
	Panels []ReportPanel     `json:"panels"`
	// Parallel holds the concurrency sweeps (afbench -full / -parallel).
	Parallel []ParallelReportPanel `json:"parallel,omitempty"`
	// Churn holds the open/close sweep (afbench -full / -churn).
	Churn []ChurnReportRow `json:"churn,omitempty"`
	// Transport holds the control-channel carrier sweep (afbench -full /
	// -transport sweep): pipe vs shm rings, per block size.
	Transport []TransportReportRow `json:"transport,omitempty"`
	// TransportEconomy holds the syscall-economy cells of the carrier sweep:
	// wakeup counters under 16 pipelined clients, per carrier.
	TransportEconomy []TransportEconomyRow `json:"transportEconomy,omitempty"`
	// Backends holds the per-backend sweep (afbench -full / -backend):
	// the same sentinel over each backend kind, per block size.
	Backends []BackendReportRow `json:"backends,omitempty"`
	// Tenants holds the many-tenant session sweep (afbench -full /
	// -tenants): concurrent sessions against the daemon's registry, with
	// quota rejections and graceful-drain latency.
	Tenants []TenantReportRow `json:"tenants,omitempty"`
	// Fleet holds the sharded-fleet scaling sweep (afbench -full / -fleet):
	// aggregate read throughput against 1/2/4 bandwidth-capped shards, plus
	// the hot-file replication pair.
	Fleet []FleetReportRow `json:"fleet,omitempty"`
	// Sessions holds the fleet-scale session sweep (afbench -full /
	// -sessions): N concurrent sessions per cell with the data plane's
	// descriptor deltas — the MPSC lane plane's O(1)-doorbells-per-segment
	// contract made measurable.
	Sessions []SessionsReportRow `json:"sessions,omitempty"`
}

// SessionsReportRow is one (cell, cohort size) point of the session sweep.
type SessionsReportRow struct {
	Cell                string  `json:"cell"`
	Sessions            int     `json:"sessions"`
	Block               int     `json:"block"`
	OpsPerSession       int     `json:"opsPerSession"`
	MicrosPerOp         float64 `json:"microsPerOp"`
	OpenMillis          float64 `json:"openMillis"`
	Segments            int64   `json:"segments"`
	DoorbellFDs         int64   `json:"doorbellFDs"`
	LaneSessions        int64   `json:"laneSessions,omitempty"`
	DoorbellsPerSegment float64 `json:"doorbellsPerSegment,omitempty"`
}

// FleetReportRow is one cell of the fleet scaling sweep. Speedup is the
// throughput ratio against the cell family's baseline (1 shard for "scale",
// 1 replica for "hot").
type FleetReportRow struct {
	Cell        string  `json:"cell"`
	Shards      int     `json:"shards"`
	Replicas    int     `json:"replicas"`
	Clients     int     `json:"clients"`
	Block       int     `json:"block"`
	MBPerSec    float64 `json:"mbPerSec"`
	Speedup     float64 `json:"speedup,omitempty"`
	BandwidthMB int     `json:"bandwidthMBPerShard,omitempty"`
}

// TenantReportRow is one concurrency cell of the many-tenant sweep.
type TenantReportRow struct {
	Sessions      int     `json:"sessions"`
	Tenants       int     `json:"tenants"`
	Admitted      int     `json:"admitted"`
	RejectedQuota uint64  `json:"rejectedQuota"`
	Ops           uint64  `json:"ops"`
	MicrosPerOp   float64 `json:"microsPerOp"`
	DrainMillis   float64 `json:"drainMillis"`
	DrainClean    bool    `json:"drainClean"`
}

// BackendReportRow is one (backend, block) cell of the backend sweep.
// WriteMicros is absent for read-only backends.
type BackendReportRow struct {
	Strategy    string  `json:"strategy"`
	Backend     string  `json:"backend"`
	Block       int     `json:"block"`
	ReadMicros  float64 `json:"readMicrosPerOp"`
	WriteMicros float64 `json:"writeMicrosPerOp,omitempty"`
}

// TransportReportRow is one block-size row of the carrier sweep. Speedup is
// pipe/shm; shm columns are zero on platforms without ring support.
type TransportReportRow struct {
	Path       string  `json:"path"`
	Block      int     `json:"block"`
	PipeMicros float64 `json:"pipeMicrosPerOp"`
	ShmMicros  float64 `json:"shmMicrosPerOp,omitempty"`
	ShmSpeedup float64 `json:"shmSpeedup,omitempty"`
}

// TransportEconomyRow is one carrier's syscall-economy cell: the wakeup
// counters accumulated while 16 pipelined clients hammered the session.
// DoorbellsPerFrame and FramesPerWakeup are the derived headline numbers;
// each is present only where it is meaningful (shm and pipe respectively).
type TransportEconomyRow struct {
	Path              string  `json:"path"`
	Carrier           string  `json:"carrier"`
	Clients           int     `json:"clients"`
	Block             int     `json:"block"`
	MicrosPerOp       float64 `json:"microsPerOp"`
	Doorbells         uint64  `json:"doorbells"`
	Suppressed        uint64  `json:"suppressed"`
	RecvFrames        uint64  `json:"recvFrames"`
	RecvWakeups       uint64  `json:"recvWakeups"`
	DoorbellsPerFrame float64 `json:"doorbellsPerFrame,omitempty"`
	FramesPerWakeup   float64 `json:"framesPerWakeup,omitempty"`
	// Flushes and FramesPerFlush quantify the send side's group-commit
	// amortization. Both are v8 columns, absent in older reports.
	Flushes        uint64  `json:"flushes,omitempty"`
	FramesPerFlush float64 `json:"framesPerFlush,omitempty"`
}

// ParallelReportPanel is one concurrency sweep in the report.
type ParallelReportPanel struct {
	Path  string               `json:"path"`
	Op    string               `json:"op"`
	Block int                  `json:"block"`
	Cells []ParallelReportCell `json:"cells"`
}

// ParallelReportCell is one (strategy, degree) point. FramesPerFlush is the
// command-channel batching amortization — mean frames per write syscall —
// present only for strategies that batch (procctl).
type ParallelReportCell struct {
	Strategy       string  `json:"strategy"`
	Degree         int     `json:"degree"`
	MicrosPerOp    float64 `json:"microsPerOp"`
	FramesPerFlush float64 `json:"framesPerFlush,omitempty"`
	// FramesPerWakeup is the receive-side drain amortization — response
	// frames per read syscall — present where the transport's receive path
	// makes reads (procctl over pipes).
	FramesPerWakeup float64 `json:"framesPerWakeup,omitempty"`
}

// ChurnReportRow is one open/close churn cell.
type ChurnReportRow struct {
	Strategy      string  `json:"strategy"`
	Opens         int     `json:"opens"`
	MicrosPerOpen float64 `json:"microsPerOpen"`
}

// ReportPanel is one Figure 6 graph in the report.
type ReportPanel struct {
	Path  string       `json:"path"` // "remote" | "disk" | "memory"
	Op    string       `json:"op"`   // "read" | "write"
	Cells []ReportCell `json:"cells"`
}

// ReportCell is one (strategy, blockSize) data point.
type ReportCell struct {
	Strategy    string  `json:"strategy"`
	Block       int     `json:"block"`
	MicrosPerOp float64 `json:"microsPerOp"`
}

// BuildReport converts measured panels into the serializable report form.
// Cells are emitted in deterministic (strategy legend, block) order so the
// output diffs cleanly between runs.
func BuildReport(panels []*Panel, ops int, params map[string]string) *Report {
	if ops == 0 {
		ops = DefaultOps
	}
	rep := &Report{Schema: ReportSchema, Ops: ops, Params: params}
	for _, p := range panels {
		rp := ReportPanel{Path: p.Path.String(), Op: p.Op.String()}
		for _, s := range p.strategies() {
			blocks := p.blocks()
			sort.Ints(blocks)
			for _, b := range blocks {
				if v, ok := p.Value(s, b); ok {
					rp.Cells = append(rp.Cells, ReportCell{
						Strategy: s, Block: b, MicrosPerOp: v,
					})
				}
			}
		}
		rep.Panels = append(rep.Panels, rp)
	}
	return rep
}

// AddParallel appends concurrency sweeps to the report in deterministic
// (strategy legend, degree) order.
func (rep *Report) AddParallel(panels []*ParallelPanel) {
	for _, p := range panels {
		rp := ParallelReportPanel{Path: p.Path.String(), Op: p.Op.String(), Block: p.Block}
		for _, s := range []string{"procctl", "thread", "direct"} {
			series, ok := p.Micros[s]
			if !ok {
				continue
			}
			for _, d := range p.Degrees {
				v, ok := series[d]
				if !ok {
					continue
				}
				cell := ParallelReportCell{Strategy: s, Degree: d, MicrosPerOp: v}
				if fpf, ok := p.FramesPerFlush[s][d]; ok {
					cell.FramesPerFlush = fpf
				}
				if fpw, ok := p.FramesPerWakeup[s][d]; ok {
					cell.FramesPerWakeup = fpw
				}
				rp.Cells = append(rp.Cells, cell)
			}
		}
		rep.Parallel = append(rep.Parallel, rp)
	}
}

// AddTransports appends the carrier sweep to the report.
func (rep *Report) AddTransports(path CachePath, results []TransportResult) {
	if path == 0 {
		path = PathMemory
	}
	for _, row := range results {
		rep.Transport = append(rep.Transport, TransportReportRow{
			Path:       path.String(),
			Block:      row.Block,
			PipeMicros: row.PipeMicros,
			ShmMicros:  row.ShmMicros,
			ShmSpeedup: row.Speedup(),
		})
	}
}

// AddTransportEconomy appends the syscall-economy cells to the report.
func (rep *Report) AddTransportEconomy(path CachePath, cells []TransportEconomy) {
	if path == 0 {
		path = PathMemory
	}
	for _, c := range cells {
		row := TransportEconomyRow{
			Path:        path.String(),
			Carrier:     c.Carrier,
			Clients:     c.Clients,
			Block:       c.Block,
			MicrosPerOp: c.MicrosPerOp,
			Doorbells:   c.Doorbells,
			Suppressed:  c.Suppressed,
			RecvFrames:  c.RecvFrames,
			RecvWakeups: c.RecvWakeups,
		}
		if dpf, ok := c.DoorbellsPerFrame(); ok {
			row.DoorbellsPerFrame = dpf
		}
		if fpw, ok := c.FramesPerWakeup(); ok {
			row.FramesPerWakeup = fpw
		}
		row.Flushes = c.Flushes
		if fpf, ok := c.FramesPerFlush(); ok {
			row.FramesPerFlush = fpf
		}
		rep.TransportEconomy = append(rep.TransportEconomy, row)
	}
}

// AddBackends appends the backend sweep to the report.
func (rep *Report) AddBackends(strategy core.Strategy, results []BackendResult) {
	if strategy == 0 {
		strategy = core.StrategyThread
	}
	for _, row := range results {
		rep.Backends = append(rep.Backends, BackendReportRow{
			Strategy:    strategy.String(),
			Backend:     row.Backend,
			Block:       row.Block,
			ReadMicros:  row.ReadMicros,
			WriteMicros: row.WriteMicros,
		})
	}
}

// AddTenants appends the many-tenant session sweep to the report.
func (rep *Report) AddTenants(results []TenantResult) {
	for _, res := range results {
		rep.Tenants = append(rep.Tenants, TenantReportRow{
			Sessions:      res.Sessions,
			Tenants:       res.Tenants,
			Admitted:      res.Admitted,
			RejectedQuota: res.RejectedQuota,
			Ops:           res.Ops,
			MicrosPerOp:   res.MicrosPerOp(),
			DrainMillis:   res.DrainMillis(),
			DrainClean:    res.DrainClean,
		})
	}
}

// AddFleet appends the fleet scaling sweep to the report, deriving each
// cell's speedup against its family baseline.
func (rep *Report) AddFleet(opts FleetOptions, results []FleetResult) {
	bwMB := opts.BandwidthMB
	if bwMB == 0 {
		bwMB = DefaultFleetBandwidthMB
	}
	if bwMB < 0 {
		bwMB = 0
	}
	base := map[string]float64{}
	for _, res := range results {
		if res.Cell == "scale" && res.Shards == 1 {
			base["scale"] = res.MBPerSec()
		}
		if res.Cell == "hot" && res.Replicas == 1 {
			base["hot"] = res.MBPerSec()
		}
	}
	for _, res := range results {
		row := FleetReportRow{
			Cell:        res.Cell,
			Shards:      res.Shards,
			Replicas:    res.Replicas,
			Clients:     res.Clients,
			Block:       res.Block,
			MBPerSec:    res.MBPerSec(),
			BandwidthMB: bwMB,
		}
		if b := base[res.Cell]; b > 0 {
			row.Speedup = res.MBPerSec() / b
		}
		rep.Fleet = append(rep.Fleet, row)
	}
}

// AddSessions appends the fleet-scale session sweep to the report.
func (rep *Report) AddSessions(results []SessionsResult) {
	for _, res := range results {
		row := SessionsReportRow{
			Cell:          res.Cell,
			Sessions:      res.Sessions,
			Block:         res.Block,
			OpsPerSession: res.OpsPerSession,
			MicrosPerOp:   res.MicrosPerOp(),
			OpenMillis:    res.OpenMillis,
			Segments:      res.Segments,
			DoorbellFDs:   res.DoorbellFDs,
			LaneSessions:  res.LaneSessions,
		}
		if dps, ok := res.DoorbellsPerSegment(); ok {
			row.DoorbellsPerSegment = dps
		}
		rep.Sessions = append(rep.Sessions, row)
	}
}

// AddChurn appends the open/close sweep to the report.
func (rep *Report) AddChurn(results []ChurnResult) {
	for _, res := range results {
		rep.Churn = append(rep.Churn, ChurnReportRow{
			Strategy:      res.Strategy,
			Opens:         res.Opens,
			MicrosPerOpen: res.MicrosPerOpen(),
		})
	}
}

// WriteJSON serializes the report, indented, to w.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteJSONFile writes the report to the named file, creating or truncating
// it.
func (rep *Report) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
