package daemon

import (
	"encoding/json"
	"net/http"
	"sort"

	"repro/internal/shm"
	"repro/internal/wire"
)

// Stats is one JSON-serializable snapshot of the whole daemon: every
// tenant's activity row, per-op latency histograms, and the wire-level
// amortization totals. It is what `afd -stats` serves and `afctl stats`
// prints.
type Stats struct {
	Draining bool  `json:"draining"`
	Sessions int64 `json:"sessions"`
	InFlight int64 `json:"inFlight"`

	Tenants []TenantStats `json:"tenants,omitempty"`
	Ops     []OpStats     `json:"ops,omitempty"`

	// Reply-path flush amortization aggregated over finished connections
	// (frames per vectored write), and receive-path wakeup amortization
	// (bytes pulled per read syscall) — the daemon-wide roll-up of the
	// per-handle BatchStats/DataPlaneStats counters.
	BatchFlushes     uint64  `json:"batchFlushes,omitempty"`
	BatchFrames      uint64  `json:"batchFrames,omitempty"`
	FramesPerFlush   float64 `json:"framesPerFlush,omitempty"`
	RecvFills        uint64  `json:"recvFills,omitempty"`
	RecvBytes        uint64  `json:"recvBytes,omitempty"`
	RejectedShutdown uint64  `json:"rejectedShutdown,omitempty"`

	// Shard is present when the daemon serves as one shard of a fleet: its
	// identity in the shard map plus lease-protocol and replication gauges.
	Shard *ShardStats `json:"shard,omitempty"`

	// DataPlane reports the process-wide descriptor economy of the shared-
	// memory data plane: mapped segments, their backing files and doorbell
	// eventfds. It is absent when no segment is mapped.
	DataPlane *DataPlaneFDStats `json:"dataPlane,omitempty"`
}

// DataPlaneFDStats is the JSON form of shm.SnapshotFDs.
type DataPlaneFDStats struct {
	Segments     int64 `json:"segments"`
	SegmentFiles int64 `json:"segmentFiles"`
	DoorbellFDs  int64 `json:"doorbellFDs"`
}

// ShardStats is the fleet-facing slice of one shard's snapshot.
type ShardStats struct {
	Self           string `json:"self"`
	MapEpoch       uint64 `json:"mapEpoch"`
	Shards         int    `json:"shards"`
	Replicas       int    `json:"replicas"`
	LeaseGrants    uint64 `json:"leaseGrants,omitempty"`
	LeaseRevokes   uint64 `json:"leaseRevokes,omitempty"`
	RevokeTimeouts uint64 `json:"revokeTimeouts,omitempty"`
	ApplyForwards  uint64 `json:"applyForwards,omitempty"`
}

// TenantStats is one tenant's accounting row.
type TenantStats struct {
	Name         string `json:"name"`
	Sessions     int64  `json:"sessions"`
	PeakSessions int64  `json:"peakSessions"`
	InFlight     int64  `json:"inFlight"`
	Ops          uint64 `json:"ops"`
	Errors       uint64 `json:"errors,omitempty"`
	BytesRead    uint64 `json:"bytesRead,omitempty"`
	BytesWritten uint64 `json:"bytesWritten,omitempty"`
	// Typed rejections: how often admission control turned this tenant
	// away, by kind.
	RejectedOverload uint64 `json:"rejectedOverload,omitempty"`
	RejectedQuota    uint64 `json:"rejectedQuota,omitempty"`
	RejectedShutdown uint64 `json:"rejectedShutdown,omitempty"`
}

// OpStats is one operation's daemon-wide latency summary.
type OpStats struct {
	Op         string            `json:"op"`
	Count      uint64            `json:"count"`
	MeanMicros float64           `json:"meanMicros"`
	P50Micros  float64           `json:"p50Micros"`
	P99Micros  float64           `json:"p99Micros"`
	MaxMicros  float64           `json:"maxMicros"`
	Histogram  HistogramSnapshot `json:"histogram"`
}

// Snapshot collects the registry's current state. It is safe to call at
// any time; counters keep moving underneath it.
func (r *Registry) Snapshot() Stats {
	s := Stats{
		Draining:         r.draining.Load(),
		Sessions:         r.sessions.Load(),
		InFlight:         r.inflight.Load(),
		BatchFlushes:     r.batchFlushes.Load(),
		BatchFrames:      r.batchFrames.Load(),
		RecvFills:        r.recvFills.Load(),
		RecvBytes:        r.recvBytes.Load(),
		RejectedShutdown: r.rejectedShutdown.Load(),
	}
	if s.BatchFlushes > 0 {
		s.FramesPerFlush = float64(s.BatchFrames) / float64(s.BatchFlushes)
	}
	if fds := shm.SnapshotFDs(); fds != (shm.FDStats{}) {
		s.DataPlane = &DataPlaneFDStats{
			Segments:     fds.Segments,
			SegmentFiles: fds.SegmentFiles,
			DoorbellFDs:  fds.DoorbellFDs,
		}
	}

	r.mu.Lock()
	rows := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		rows = append(rows, t)
	}
	shard := r.shard
	r.mu.Unlock()
	if shard != nil {
		ss := shard()
		s.Shard = &ss
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, t := range rows {
		s.Tenants = append(s.Tenants, TenantStats{
			Name:             t.name,
			Sessions:         t.sessions.Load(),
			PeakSessions:     t.peakSessions.Load(),
			InFlight:         t.inflight.Load(),
			Ops:              t.ops.Load(),
			Errors:           t.errors.Load(),
			BytesRead:        t.bytesRead.Load(),
			BytesWritten:     t.bytesWritten.Load(),
			RejectedOverload: t.rejOverload.Load(),
			RejectedQuota:    t.rejQuota.Load(),
			RejectedShutdown: t.rejShutdown.Load(),
		})
	}

	for op := wire.Op(1); int(op) < opSlots; op++ {
		hs := r.hist[op].Snapshot()
		if hs.Count == 0 {
			continue
		}
		s.Ops = append(s.Ops, OpStats{
			Op:         op.String(),
			Count:      hs.Count,
			MeanMicros: hs.MeanMicros(),
			P50Micros:  hs.QuantileMicros(0.50),
			P99Micros:  hs.QuantileMicros(0.99),
			MaxMicros:  hs.QuantileMicros(1),
			Histogram:  hs,
		})
	}
	return s
}

// ServeHTTP serves the snapshot as indented JSON, making a Registry
// mountable directly as the `afd -stats` endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Snapshot())
}
