//go:build linux

package shm

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Segment layout, all offsets cache-line aligned:
//
//	[0, 4096)                      control region (magic, version, epoch, ring directory)
//	[4096, 4096+ringHdrBytes)      ring 0 (command) header
//	[..., ... + cap0)              ring 0 data
//	[..., ... + ringHdrBytes)      ring 1 (reply) header
//	[..., ... + cap1)              ring 1 data
//
// Ring 0 carries commands toward the serving side and ring 1 carries replies
// back. The directory in the control region records each ring's header
// offset and capacity, so an attaching process reconstructs the geometry
// from the mapping itself and validates it before trusting it. Capacities
// are powers of two so cursor positions reduce with a mask, and the cursors
// themselves are free-running uint64 byte counts (head = bytes produced,
// tail = bytes consumed) — the empty/full ambiguity of wrapped indices never
// arises and 2^64 bytes outlives any session.
const (
	segMagic     = 0x41465348 // "AFSH" — active-file shared memory
	segVersion   = 2          // v2: control region with epoch + ring directory, shared doorbell counters
	segHdrBytes  = 4096
	ringHdrBytes = 512
	minRingBytes = 4096
	segRings     = 2 // one command ring and one reply ring
)

// Spin calibration. On a shared core the peer cannot make progress while we
// burn it, so every spin iteration yields the CPU with sched_yield — that is
// what turns the spin from a pure waste into "run the peer, then re-check".
// Every goschedEvery-th iteration yields to the Go scheduler instead, so
// same-process goroutines (mux callers, child workers) are not starved of
// the P under GOMAXPROCS=1; it is kept rare because an idle-runqueue Gosched
// costs a netpoll probe. After spinBudget fruitless iterations the waiter
// parks on its doorbell and burns nothing.
const (
	spinBudget   = 96
	goschedEvery = 8
)

// Raw syscall numbers, named for the call sites. memfd_create postdates the
// frozen syscall package, so its number is spelled per-arch in
// memfd_*.go; zero means "no memfd, use a temp file".
const eventfdTrap = syscall.SYS_EVENTFD2

// ringDir is one control-region directory entry: where a ring's header
// lives and how much data it carries.
type ringDir struct {
	off uint64 // ring header offset from the segment start
	cap uint64 // ring data capacity (power of two)
}

// segHdr is the segment's control region. Epoch is the adoption generation:
// the parent bumps it when a warm-pool rebind hands the segment's rings to a
// new session, so both processes (and post-mortem tests) can tell sessions
// apart without remapping anything. Each mutable word gets its own cache
// line, like the ring headers.
type segHdr struct {
	magic   uint32
	version uint32
	_       [56]byte
	epoch   atomic.Uint64 // session generation; bumped on warm-pool adoption
	_       [56]byte
	nrings  uint32 // directory length; always segRings
	_       [60]byte
	dir     [segRings]ringDir
}

// ringHdr is the shared control block of one ring, laid out so every
// mutable word (or same-owner word group) owns a cache line: head is written
// only by the producer, tail only by the consumer, and sharing a line would
// make each side's cursor store invalidate the other's hot loop. The
// doorbell counters live here — not in process-local memory — because the
// bells of one ring are rung by different processes per direction and the
// benchmark observer (the parent) wants the whole economy; they share their
// owner's infrequently-written lines.
type ringHdr struct {
	head    atomic.Uint64 // bytes produced; written by producer only
	_       [56]byte
	tail    atomic.Uint64 // bytes consumed; written by consumer only
	_       [56]byte
	rparked atomic.Uint32 // consumer is (about to be) parked on the data bell
	_       [60]byte
	wparked atomic.Uint32 // producer is (about to be) parked on the space bell
	_       [60]byte
	closed  atomic.Uint32 // either side closed; set once, never cleared
	_       [60]byte
	pbells  atomic.Uint64 // data doorbells rung by the producer
	psupp   atomic.Uint64 // producer wakes suppressed (consumer running, or flush-coalesced)
	_       [48]byte
	cbells  atomic.Uint64 // space doorbells rung by the consumer
	csupp   atomic.Uint64 // consumer wakes suppressed (producer running)
	_       [48]byte
}

// Both shared structures must fit their reserved regions; a negative array
// length here fails the build the moment either outgrows its slot.
var (
	_ [segHdrBytes - int(unsafe.Sizeof(segHdr{}))]byte
	_ [ringHdrBytes - int(unsafe.Sizeof(ringHdr{}))]byte
)

// Ring is one direction of the shared segment: an SPSC byte stream over
// mapped memory. Exactly one process writes it and exactly one reads it;
// within a process the usual io.Reader/io.Writer discipline applies (one
// reader goroutine, one writer goroutine at a time).
//
// Two doorbells serve the two wait directions: the producer rings dataBell
// to wake a consumer parked for bytes, the consumer rings spaceBell to wake
// a producer parked for room. They must be distinct — with a single shared
// bell, a parking reader could swallow the token meant for a space-starved
// writer and strand both sides.
type Ring struct {
	name string
	hdr  *ringHdr
	data []byte
	mask uint64

	dataBell  *os.File // producer → consumer: "bytes available"
	spaceBell *os.File // consumer → producer: "space available"

	// Flush coalescing (wire.FlushCoalescer). Plain fields, written only on
	// the producer side: single-writer discipline (and BatchWriter's
	// leader mutex, for batched producers) serializes access, and the
	// consumer never reads them.
	deferWake   bool // inside a BeginFlush/EndFlush bracket
	wakePending bool // a publish happened since BeginFlush; decide at EndFlush

	localClosed atomic.Bool
	inflight    atomic.Int64 // ring ops in this process, gating munmap

	// detached is set (after snapshotting the shared counters below) when the
	// segment starts tearing down, so Stats never chases hdr into an
	// unmapped page.
	detached   atomic.Bool
	finalBells atomic.Uint64
	finalSupp  atomic.Uint64

	parks atomic.Uint64
	spins atomic.Uint64
}

// SelfBuffered marks the ring for wire.SelfBuffered: its Read already drains
// every published byte per cursor check without a syscall, so drain-mode
// buffering on top would only add a memcpy.
func (r *Ring) SelfBuffered() {}

// Segment is one process's view of the shared mapping and its doorbells.
// The parent creates it (New) and passes its files to the child, which
// attaches (Attach); both ends hold equal views afterwards.
type Segment struct {
	mem    []byte
	file   *os.File
	hdr    *segHdr
	rings  []*Ring
	closed atomic.Bool
}

// Supported reports whether this platform can host the transport.
func Supported() bool { return true }

// New creates a fresh anonymous shared segment carrying one command/reply
// ring pair with the given capacities (0 means the defaults) and its four
// doorbell eventfds. The backing file is a memfd when the kernel has one,
// else an unlinked temp file; either way nothing persists past the
// processes holding it.
func New(cmdBytes, replyBytes int) (*Segment, error) {
	if cmdBytes <= 0 {
		cmdBytes = DefaultCmdBytes
	}
	if replyBytes <= 0 {
		replyBytes = DefaultReplyBytes
	}
	cmdCap := ceilPow2(cmdBytes)
	replyCap := ceilPow2(replyBytes)

	f, err := newSegmentFile()
	if err != nil {
		return nil, err
	}
	total := segHdrBytes + 2*ringHdrBytes + cmdCap + replyCap
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: size segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: map segment: %w", err)
	}
	hdr := (*segHdr)(unsafe.Pointer(&mem[0]))
	hdr.magic = segMagic
	hdr.version = segVersion
	hdr.nrings = segRings
	hdr.dir[0] = ringDir{off: segHdrBytes, cap: uint64(cmdCap)}
	hdr.dir[1] = ringDir{off: segHdrBytes + ringHdrBytes + uint64(cmdCap), cap: uint64(replyCap)}

	bells := make([]*os.File, 2*segRings)
	for i := range bells {
		b, err := newEventFD()
		if err != nil {
			for _, open := range bells[:i] {
				open.Close()
			}
			syscall.Munmap(mem)
			f.Close()
			return nil, err
		}
		bells[i] = b
	}
	return assemble(f, mem, hdr, bells), nil
}

// Attach builds the attaching process's view from the inherited files: the
// segment file plus two doorbells per ring, in ChildFiles order. The
// geometry comes from the control region's ring directory, which another
// process wrote: it must hold exactly one command/reply pair and tile the
// mapping exactly. Attach takes ownership of the files on success and on
// failure.
func Attach(seg *os.File, bells []*os.File) (*Segment, error) {
	closeAll := func() {
		seg.Close()
		for _, b := range bells {
			if b != nil {
				b.Close()
			}
		}
	}
	st, err := seg.Stat()
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("shm: stat segment: %w", err)
	}
	total := int(st.Size())
	if total < segHdrBytes+ringHdrBytes+minRingBytes {
		closeAll()
		return nil, fmt.Errorf("shm: segment too small (%d bytes)", total)
	}
	mem, err := syscall.Mmap(int(seg.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("shm: map segment: %w", err)
	}
	hdr := (*segHdr)(unsafe.Pointer(&mem[0]))
	nrings := int(hdr.nrings)
	switch {
	case hdr.magic != segMagic:
		err = fmt.Errorf("shm: bad segment magic %#x", hdr.magic)
	case hdr.version != segVersion:
		err = fmt.Errorf("shm: segment version %d, want %d", hdr.version, segVersion)
	case nrings != segRings:
		err = fmt.Errorf("shm: segment directory holds %d rings, want %d", nrings, segRings)
	case len(bells) != 2*nrings:
		err = fmt.Errorf("shm: attach wants %d doorbells for %d rings, got %d", 2*nrings, nrings, len(bells))
	default:
		// Directory entries must tile the mapping exactly: ascending,
		// non-overlapping, power-of-two capacities, ending at the mapping's
		// end. Anything else is a corrupt or foreign segment.
		expect := uint64(segHdrBytes)
		for i := 0; i < nrings; i++ {
			d := hdr.dir[i]
			if d.off != expect || d.cap < minRingBytes || d.cap&(d.cap-1) != 0 ||
				d.off+ringHdrBytes+d.cap > uint64(total) {
				err = fmt.Errorf("shm: ring %d directory entry (off %d, cap %d) does not fit %d bytes", i, d.off, d.cap, total)
				break
			}
			expect = d.off + ringHdrBytes + d.cap
		}
		if err == nil && expect != uint64(total) {
			err = fmt.Errorf("shm: segment geometry ends at %d of %d bytes", expect, total)
		}
	}
	if err != nil {
		syscall.Munmap(mem)
		closeAll()
		return nil, err
	}
	return assemble(seg, mem, hdr, bells), nil
}

// assemble carves the mapping into its two rings. Doorbell order is
// [cmd data, cmd space, reply data, reply space] — the contract between
// ChildFiles and Attach.
func assemble(f *os.File, mem []byte, hdr *segHdr, bells []*os.File) *Segment {
	s := &Segment{mem: mem, file: f, hdr: hdr}
	fdSegments.Add(1)
	fdSegmentFiles.Add(1)
	fdDoorbells.Add(int64(len(bells)))
	for i, name := range [segRings]string{"cmd", "reply"} {
		d := hdr.dir[i]
		dataOff := d.off + ringHdrBytes
		s.rings = append(s.rings, &Ring{
			name:      name,
			hdr:       (*ringHdr)(unsafe.Pointer(&mem[d.off])),
			data:      mem[dataOff : dataOff+d.cap],
			mask:      d.cap - 1,
			dataBell:  bells[2*i],
			spaceBell: bells[2*i+1],
		})
	}
	return s
}

// Cmd returns the command ring (toward the serving side).
func (s *Segment) Cmd() *Ring { return s.rings[0] }

// Reply returns the reply ring (back from the serving side).
func (s *Segment) Reply() *Ring { return s.rings[1] }

// Rings returns both rings, command then reply.
func (s *Segment) Rings() []*Ring { return s.rings }

// Epoch returns the control region's adoption generation. Valid only while
// the segment is open.
func (s *Segment) Epoch() uint64 { return s.hdr.epoch.Load() }

// AdvanceEpoch bumps the adoption generation — called when a warm-pool
// rebind hands this segment's rings to a new session — and returns the new
// value. Both processes observe it through the shared control region.
func (s *Segment) AdvanceEpoch() uint64 { return s.hdr.epoch.Add(1) }

// Closed reports whether this process's view has been torn down.
func (s *Segment) Closed() bool { return s.closed.Load() }

// ChildFiles returns the files the attaching process must inherit, in the
// order Attach expects them back: segment file first, then two doorbells per
// ring in directory order.
func (s *Segment) ChildFiles() []*os.File {
	files := []*os.File{s.file}
	for _, r := range s.rings {
		files = append(files, r.dataBell, r.spaceBell)
	}
	return files
}

// Close shuts every ring in the segment (waking any parked peer in either
// process), waits for this process's in-flight ring operations to drain, and
// unmaps the segment — the control region and all ring headers go with the
// one mapping. If an operation refuses to drain — a wedged caller still
// inside Read — the mapping is leaked rather than unmapped under it, since a
// stale load through an unmapped page is a process-killing SIGSEGV, not an
// error. Idempotent.
func (s *Segment) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, r := range s.rings {
		r.Close()
	}
	for _, r := range s.rings {
		r.detach()
	}

	unmap := true
	deadline := time.Now().Add(2 * time.Second)
	for !s.ringsIdle() {
		if time.Now().After(deadline) {
			unmap = false
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if unmap {
		syscall.Munmap(s.mem)
	}
	s.mem = nil
	err := s.file.Close()
	for _, r := range s.rings {
		r.dataBell.Close()
		r.spaceBell.Close()
	}
	fdSegments.Add(-1)
	fdSegmentFiles.Add(-1)
	fdDoorbells.Add(-2 * int64(len(s.rings)))
	return err
}

// ringsIdle reports whether no ring operation is in flight in this process.
func (s *Segment) ringsIdle() bool {
	for _, r := range s.rings {
		if r.inflight.Load() != 0 {
			return false
		}
	}
	return true
}

// Close marks the ring closed for both processes and rings both doorbells
// so any parked side — ours or the peer's — wakes and observes it. The
// shared flag is never cleared: a closed ring stays closed. The inflight
// gate keeps Segment.Close from unmapping the header or closing the
// doorbells while a racing Close is still storing to them.
func (r *Ring) Close() error {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if !r.localClosed.CompareAndSwap(false, true) {
		return nil
	}
	r.hdr.closed.Store(1)
	ringBell(r.dataBell)
	ringBell(r.spaceBell)
	return nil
}

// detach snapshots the shared doorbell counters and redirects Stats to the
// snapshot, so a Stats call racing (or following) the segment unmap reads
// process-local memory instead of a page that may be gone.
func (r *Ring) detach() {
	r.finalBells.Store(r.hdr.pbells.Load() + r.hdr.cbells.Load())
	r.finalSupp.Store(r.hdr.psupp.Load() + r.hdr.csupp.Load())
	r.detached.Store(true)
}

// isClosed reports whether either side closed the ring.
func (r *Ring) isClosed() bool {
	return r.hdr.closed.Load() != 0 || r.localClosed.Load()
}

// Stats snapshots the ring's wait counters. Parks and Spins are this
// process's; Doorbells and Suppressed come from the shared header and count
// both sides. Safe to call after Close — the teardown path snapshots the
// shared counters before the mapping can go away, and the inflight gate
// keeps a concurrent unmap waiting for a live read of them.
func (r *Ring) Stats() Stats {
	s := Stats{Parks: r.parks.Load(), Spins: r.spins.Load()}
	r.inflight.Add(1)
	if r.detached.Load() {
		s.Doorbells = r.finalBells.Load()
		s.Suppressed = r.finalSupp.Load()
	} else {
		s.Doorbells = r.hdr.pbells.Load() + r.hdr.cbells.Load()
		s.Suppressed = r.hdr.psupp.Load() + r.hdr.csupp.Load()
	}
	r.inflight.Add(-1)
	return s
}

// Read copies up to len(p) currently-published bytes out of the ring,
// waiting (spin, then park on the data doorbell) while it is empty. When
// the ring is closed and fully drained it returns io.EOF — the same
// terminal shape a pipe gives its reader, which is what lets wire.Reader's
// torn-frame discipline (mid-frame EOF → ErrUnexpectedEOF → mux poisoning)
// apply unchanged.
func (r *Ring) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.detached.Load() {
		// The segment is (or is about to be) unmapped; the header may be a
		// dead page. A detached ring was drained by teardown — EOF, like any
		// other post-close read.
		return 0, io.EOF
	}

	spins := 0
	for {
		t := r.hdr.tail.Load()
		h := r.hdr.head.Load()
		if h != t {
			avail := h - t
			pos := t & r.mask
			n := uint64(len(p))
			if n > avail {
				n = avail
			}
			if contig := uint64(len(r.data)) - pos; n > contig {
				n = contig
			}
			copy(p, r.data[pos:pos+n])
			r.hdr.tail.Store(t + n)
			r.wakeWriter()
			return int(n), nil
		}
		if r.isClosed() {
			// Re-check emptiness after observing the flag: the peer may have
			// published bytes and then closed; drain them first.
			if r.hdr.head.Load() == t {
				return 0, io.EOF
			}
			continue
		}
		if spins < spinBudget {
			r.relax(spins)
			spins++
			continue
		}
		r.park(&r.hdr.rparked, r.dataBell, func() bool { return r.hdr.head.Load() != t })
		spins = 0
	}
}

// Discard consumes exactly n published bytes without copying them out — the
// ring-aware fast path under wire.Reader.DiscardPayload. It blocks like
// Read and returns how many bytes it dropped with io.EOF if the ring closed
// short.
func (r *Ring) Discard(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.detached.Load() {
		return 0, io.EOF
	}

	dropped := 0
	spins := 0
	for dropped < n {
		t := r.hdr.tail.Load()
		h := r.hdr.head.Load()
		if h != t {
			take := h - t
			if rem := uint64(n - dropped); take > rem {
				take = rem
			}
			r.hdr.tail.Store(t + take)
			r.wakeWriter()
			dropped += int(take)
			spins = 0
			continue
		}
		if r.isClosed() {
			if r.hdr.head.Load() == t {
				return dropped, io.EOF
			}
			continue
		}
		if spins < spinBudget {
			r.relax(spins)
			spins++
			continue
		}
		r.park(&r.hdr.rparked, r.dataBell, func() bool { return r.hdr.head.Load() != t })
		spins = 0
	}
	return dropped, nil
}

// Write copies all of p into the ring, waiting (spin, then park on the
// space doorbell) whenever it is full; frames larger than the ring go in
// chunks while the consumer drains concurrently. A closed ring fails the
// write with ErrClosed — the shared-memory analogue of EPIPE.
func (r *Ring) Write(p []byte) (int, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	if r.detached.Load() {
		return 0, ErrClosed
	}

	written := 0
	spins := 0
	for written < len(p) {
		if r.isClosed() {
			return written, ErrClosed
		}
		h := r.hdr.head.Load()
		t := r.hdr.tail.Load()
		free := uint64(len(r.data)) - (h - t)
		if free == 0 {
			// The ring cannot drain while its reader sleeps: release any
			// doorbell a flush bracket is holding back before waiting for
			// space, or writer and reader would park facing each other.
			r.flushWake()
			if spins < spinBudget {
				r.relax(spins)
				spins++
				continue
			}
			r.park(&r.hdr.wparked, r.spaceBell, func() bool { return r.hdr.tail.Load() != t })
			spins = 0
			continue
		}
		pos := h & r.mask
		n := free
		if rem := uint64(len(p) - written); n > rem {
			n = rem
		}
		if contig := uint64(len(r.data)) - pos; n > contig {
			n = contig
		}
		copy(r.data[pos:pos+n], p[written:written+int(n)])
		r.hdr.head.Store(h + n)
		r.wakeReader()
		written += int(n)
		spins = 0
	}
	return written, nil
}

// BeginFlush opens a doorbell-coalescing bracket (wire.FlushCoalescer): the
// wake decisions of every Write until EndFlush collapse into one. Producer
// side only; brackets do not nest.
func (r *Ring) BeginFlush() { r.deferWake = true }

// EndFlush closes the bracket and performs the single deferred wake
// decision. Running the parked check here — after the bracket's final
// cursor store — preserves the Dekker no-lost-wakeup property: a consumer
// parking mid-bracket set rparked before re-checking emptiness, so either
// it saw our bytes and returned, or we see its flag now and ring.
func (r *Ring) EndFlush() {
	r.deferWake = false
	r.flushWake()
}

// flushWake issues a deferred wake decision, if one is pending. EndFlush
// runs outside any Write's inflight window, so the parked-flag load must be
// bracketed by its own inflight/detached guard against a concurrent unmap.
func (r *Ring) flushWake() {
	if !r.wakePending {
		return
	}
	r.wakePending = false
	r.inflight.Add(1)
	if !r.detached.Load() {
		r.ringDataBell()
	}
	r.inflight.Add(-1)
}

// wakeReader decides the post-publish wake: inside a flush bracket the
// decision is deferred (and counted suppressed past the first), otherwise
// the data doorbell rings iff the consumer is parked.
func (r *Ring) wakeReader() {
	if r.deferWake {
		if r.wakePending {
			// A previous publish in this bracket already holds the pending
			// decision; this one's wake is coalesced away entirely.
			r.hdr.psupp.Add(1)
		}
		r.wakePending = true
		return
	}
	r.ringDataBell()
}

// ringDataBell rings the data doorbell iff the consumer is parked (or mid-
// park). The flag check keeps the hot path syscall-free: an actively
// spinning or busy consumer never costs the producer a bell — that skip is
// what the suppressed counter records.
func (r *Ring) ringDataBell() {
	if r.hdr.rparked.Load() != 0 {
		r.hdr.pbells.Add(1)
		ringBell(r.dataBell)
	} else {
		r.hdr.psupp.Add(1)
	}
}

// wakeWriter rings the space doorbell iff the producer is parked.
func (r *Ring) wakeWriter() {
	if r.hdr.wparked.Load() != 0 {
		r.hdr.cbells.Add(1)
		ringBell(r.spaceBell)
	} else {
		r.hdr.csupp.Add(1)
	}
}

// relax burns one bounded-spin iteration: sched_yield so the peer process
// can run on a shared core, with a periodic Gosched so same-process
// goroutines get the P too.
func (r *Ring) relax(spin int) {
	r.spins.Add(1)
	if spin%goschedEvery == goschedEvery-1 {
		runtime.Gosched()
	} else {
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// park blocks on bell until the peer rings it, the ring closes, or ready
// reports the wait is already over. The flag-then-recheck order pairs with
// the peer's publish-then-check-flag order (see the package comment);
// together they guarantee the bell cannot be missed. A bell read may also
// return a stale token from an earlier wake — callers loop and re-check, so
// spurious wakeups are harmless.
func (r *Ring) park(flag *atomic.Uint32, bell *os.File, ready func() bool) {
	flag.Store(1)
	defer flag.Store(0)
	if ready() || r.isClosed() {
		return
	}
	r.parks.Add(1)
	var buf [8]byte
	// The eventfd is in blocking mode (exec inheritance forces it there), so
	// this occupies an OS thread, not the netpoller; the runtime hands the P
	// off. Errors need no handling: a closed bell during teardown surfaces
	// as an error here, and the caller's loop then observes the closed ring.
	bell.Read(buf[:])
}

// ringBell posts one token to an eventfd. Failures are ignored: the only
// ways a bell write fails are teardown races, where the waiter is being
// released by the closed flag anyway.
func ringBell(bell *os.File) {
	var one = [8]byte{0: 1}
	bell.Write(one[:])
}

// newEventFD opens a fresh eventfd doorbell. Blocking mode is deliberate:
// os/exec flips inherited descriptors to blocking when spawning the child,
// and the flag lives on the shared open file description, so nonblocking
// semantics could not survive anyway. A parked waiter simply occupies one
// OS thread until rung.
func newEventFD() (*os.File, error) {
	const efdCloexec = 0x80000 // EFD_CLOEXEC; cleared per-fd by ExtraFiles inheritance
	fd, _, errno := syscall.Syscall(eventfdTrap, 0, efdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("shm: eventfd: %w", errno)
	}
	return os.NewFile(fd, "shm-doorbell"), nil
}

// newSegmentFile returns an anonymous file to back the mapping: a memfd
// when available, else an unlinked temp file (page-cache backed, so the
// data path is the same; only the name lifecycle differs).
func newSegmentFile() (*os.File, error) {
	if memfdTrap != 0 {
		name, err := syscall.BytePtrFromString("af-shm")
		if err == nil {
			const mfdCloexec = 1 // MFD_CLOEXEC
			fd, _, errno := syscall.Syscall(memfdTrap, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
			if errno == 0 {
				return os.NewFile(fd, "af-shm"), nil
			}
		}
	}
	f, err := os.CreateTemp("", "af-shm-*")
	if err != nil {
		return nil, fmt.Errorf("shm: create segment file: %w", err)
	}
	os.Remove(f.Name())
	return f, nil
}

func ceilPow2(n int) int {
	if n < minRingBytes {
		n = minRingBytes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
