package shm

import "sync/atomic"

// Process-wide descriptor accounting for the shared-memory data plane. Every
// mapped segment, created or attached, registers the descriptors it holds
// open, so tests and the daemon snapshot can see that a closed session
// leaves none behind.
var (
	fdSegments     atomic.Int64 // mapped segments in this process
	fdSegmentFiles atomic.Int64 // backing files (memfd / unlinked temp) held open
	fdDoorbells    atomic.Int64 // doorbell eventfds held open
)

// FDStats is a snapshot of the data plane's descriptor economy.
type FDStats struct {
	Segments     int64 // mapped segments
	SegmentFiles int64 // backing file descriptors
	DoorbellFDs  int64 // doorbell eventfd descriptors
}

// SnapshotFDs returns the current process-wide descriptor gauges.
func SnapshotFDs() FDStats {
	return FDStats{
		Segments:     fdSegments.Load(),
		SegmentFiles: fdSegmentFiles.Load(),
		DoorbellFDs:  fdDoorbells.Load(),
	}
}
