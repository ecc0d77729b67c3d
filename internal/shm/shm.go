// Package shm implements the shared-memory data plane for the process
// strategies: mmap'd single-producer/single-consumer byte rings — a
// parent→child command ring and a child→parent reply ring per session pair —
// with cache-line-padded head/tail cursors, an eventfd doorbell per wait
// direction, and adaptive spin-then-park waiting.
//
// The rings are plain ordered byte streams (io.Reader/io.Writer), so the
// existing wire framing, ipc.Mux correlation, BatchWriter group commit, and
// the whole failure machinery run over them unchanged; only the bytes'
// carrier moves from a kernel pipe to shared memory. On the hot path a frame
// exchange costs two memcpys and zero syscalls: the producer publishes bytes
// with an atomic cursor store and rings the peer's doorbell only when the
// peer has actually parked, and the consumer spins briefly (yielding the CPU
// so a same-core peer can run) before parking. An idle ring therefore burns
// no CPU — both sides block in an eventfd read until the next doorbell.
//
// Doorbell coalescing: a group-committed flush (wire.BatchWriter) brackets
// its ring writes with BeginFlush/EndFlush, deferring the wake decision to
// the end of the batch — N frames published together cost at most one
// doorbell, and none at all when the consumer is running. Both rung and
// suppressed doorbells are counted in the shared ring header, so either
// process can observe the full syscall economy of the pair (the child rings
// the reply-ring doorbells, but the parent reports them).
//
// Memory ordering: cursors and park flags are sync/atomic values living in
// the shared mapping. Data bytes are written before the head-cursor store
// that publishes them and read only after loading the cursor, so the
// release/acquire pairing of Go's (sequentially consistent) atomics carries
// the payload across the process boundary. The park/doorbell handshake is a
// Dekker-style store-then-check on both sides — the producer publishes then
// checks "consumer parked?", the consumer marks parked then re-checks
// "ring still empty?" — which sequential consistency makes lossless: at
// least one side always sees the other's store, so a wakeup cannot be lost.
// A deferred (coalesced) wake preserves the property because EndFlush
// re-runs the parked check after the final cursor store, and a writer that
// must wait for space first releases any deferred wake so the reader it is
// waiting on cannot stay parked.
//
// Segment layout: one mapping carries a control region (magic/version, an
// adoption epoch, and a ring directory) followed by both rings' headers and
// data areas, so a warm-pool adoption rebinds rings inside the existing
// segment — no new fds, no new mmaps.
//
// Teardown: either side may Close, which sets a shared closed flag and rings
// every doorbell. Readers drain what was published and then see io.EOF;
// writers fail with ErrClosed. A SIGKILLed peer cannot set the flag, so the
// surviving side's supervisor (the parent's child monitor, the child's
// control-pipe watchdog) closes its endpoint explicitly — the same prompt
// poisoning discipline the pipe transport gets from kernel EOF/EPIPE.
package shm

import "errors"

// Default ring capacities. The command ring carries only request envelopes
// (tens of bytes each); the reply ring carries response envelopes plus read
// payloads, so it gets the larger share. Frames larger than a ring are
// written in chunks, with the consumer draining concurrently.
const (
	DefaultCmdBytes   = 256 << 10
	DefaultReplyBytes = 1 << 20
)

// ErrClosed reports a write to (or a wait on) a ring whose segment was
// closed by either side.
var ErrClosed = errors.New("shm: ring closed")

// ErrUnsupported reports that this platform cannot host the shared-memory
// transport; callers fall back to the pipe transport.
var ErrUnsupported = errors.New("shm: shared-memory transport unsupported on this platform")

// Stats is a point-in-time snapshot of one ring's wait behaviour, exposed so
// tests can pin the spin-then-park contract (a parked ring must not spin)
// and benchmarks can report doorbell amortization. Parks and Spins are local
// to the calling process; Doorbells and Suppressed live in the shared ring
// header and therefore count both processes' wake decisions on this ring.
type Stats struct {
	Parks      uint64 // times this process gave up spinning and blocked on a doorbell
	Doorbells  uint64 // doorbell syscalls issued to wake a parked peer (both sides)
	Suppressed uint64 // wakes skipped: peer was running, or coalesced into a flush (both sides)
	Spins      uint64 // yield iterations this process spent in bounded spin waits
}
