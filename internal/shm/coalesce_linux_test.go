//go:build linux

package shm

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// Tests for the PR 7 syscall-economy surface: doorbell coalescing
// (BeginFlush/EndFlush), the shared wakeup counters, and the multi-ring
// segment layout with its control region.

// TestFlushCoalescingOneDoorbellPerBracket pins the headline property: a
// bracketed group of N writes wakes a parked reader with at most ONE
// doorbell, with the other publishes recorded as suppressed.
func TestFlushCoalescingOneDoorbellPerBracket(t *testing.T) {
	faultinject.LeakCheck(t)
	s := newTestSegment(t, 0, 0)
	r := s.Cmd()

	const writes = 16
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, writes)
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Errorf("read: %v", err)
			close(got)
			return
		}
		got <- buf
	}()
	waitFor(t, func() bool { return r.Stats().Parks >= 1 })

	before := r.Stats()
	r.BeginFlush()
	for i := 0; i < writes; i++ {
		if _, err := r.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	r.EndFlush()

	select {
	case buf := <-got:
		for i, b := range buf {
			if b != byte(i) {
				t.Fatalf("byte %d = %#x, want %#x", i, b, byte(i))
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deferred doorbell never woke the parked reader")
	}

	after := r.Stats()
	if rang := after.Doorbells - before.Doorbells; rang != 1 {
		t.Fatalf("bracket of %d writes rang %d doorbells, want exactly 1", writes, rang)
	}
	if supp := after.Suppressed - before.Suppressed; supp < writes-1 {
		t.Fatalf("bracket of %d writes suppressed %d wakeups, want >= %d", writes, supp, writes-1)
	}
}

// TestFlushBracketFullRingDoesNotDeadlock is the liveness hazard the
// coalescer must dodge: mid-bracket, the writer fills the ring while the
// reader is parked awaiting a doorbell the bracket is deferring. Write's
// ring-full path must surface the pending wake before parking for space.
func TestFlushBracketFullRingDoesNotDeadlock(t *testing.T) {
	faultinject.LeakCheck(t)
	s := newTestSegment(t, minRingBytes, minRingBytes)
	r := s.Cmd()

	const total = 4 * minRingBytes
	readerDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 512)
		seen := 0
		for seen < total {
			n, err := r.Read(buf)
			if err != nil {
				readerDone <- err
				return
			}
			seen += n
		}
		readerDone <- nil
	}()
	waitFor(t, func() bool { return r.Stats().Parks >= 1 })

	done := make(chan error, 1)
	go func() {
		r.BeginFlush()
		defer r.EndFlush()
		// Far larger than capacity: the writer must park for space at least
		// once while the bracket is open.
		_, err := r.Write(make([]byte, total))
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("bracketed over-capacity write: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer deadlocked mid-bracket on a full ring (lost wakeup)")
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
}

// TestRingWakeupLiveness is the randomized lost-wakeup hunt: a producer
// issuing randomly sized, randomly bracketed write groups and a consumer
// draining with random pauses must always terminate. Run under -race this
// doubles as the ordering check on the Dekker-style parked/doorbell
// handshake; a suppression bug shows up as a hang, caught by the deadline.
func TestRingWakeupLiveness(t *testing.T) {
	faultinject.LeakCheck(t)
	const (
		rounds = 4
		total  = 64 * 1024
	)
	for round := 0; round < rounds; round++ {
		s := newTestSegment(t, minRingBytes, minRingBytes)
		r := s.Reply()
		rng := rand.New(rand.NewSource(int64(round) * 7919))
		seed := rng.Int63()

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() { // producer: bracketed bursts of small writes
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			sent := 0
			for sent < total {
				burst := 1 + prng.Intn(8)
				bracketed := prng.Intn(2) == 0
				if bracketed {
					r.BeginFlush()
				}
				for i := 0; i < burst && sent < total; i++ {
					n := 1 + prng.Intn(700)
					if sent+n > total {
						n = total - sent
					}
					if _, err := r.Write(make([]byte, n)); err != nil {
						if bracketed {
							r.EndFlush()
						}
						errs <- err
						return
					}
					sent += n
				}
				if bracketed {
					r.EndFlush()
				}
				if prng.Intn(4) == 0 {
					runtime.Gosched()
				}
			}
		}()
		go func() { // consumer: drain with erratic pacing
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed + 1))
			buf := make([]byte, 1024)
			seen := 0
			for seen < total {
				n, err := r.Read(buf[:1+prng.Intn(len(buf))])
				if err != nil {
					errs <- err
					return
				}
				seen += n
				if prng.Intn(8) == 0 {
					time.Sleep(time.Duration(prng.Intn(200)) * time.Microsecond)
				}
			}
		}()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: producer/consumer wedged — lost wakeup under doorbell suppression", round)
		}
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		s.Close()
	}
}

// TestSharedDoorbellCountersCrossAttach checks that the wakeup counters live
// in the segment, not the process: bells rung by an attached view are
// visible through the creator's Stats, the way a child's reply-ring bells
// must be visible to the parent.
func TestSharedDoorbellCountersCrossAttach(t *testing.T) {
	s := newTestSegment(t, 0, 0)
	att := attachClone(t, s)

	// The attached view's reader parks; the creator's writer wakes it. The
	// doorbell is rung through the creator's Ring, but the counter must read
	// back identically through the attached Ring — one shared ledger.
	done := make(chan struct{})
	go func() {
		var b [1]byte
		io.ReadFull(att.Rings()[0], b[:])
		close(done)
	}()
	waitFor(t, func() bool { return att.Rings()[0].Stats().Parks >= 1 })
	if _, err := s.Cmd().Write([]byte{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	<-done

	creator, attached := s.Cmd().Stats(), att.Rings()[0].Stats()
	if creator.Doorbells == 0 {
		t.Fatal("no doorbell recorded for a parked-reader wakeup")
	}
	if creator.Doorbells != attached.Doorbells || creator.Suppressed != attached.Suppressed {
		t.Fatalf("counters diverge across attach: creator %+v attached %+v", creator, attached)
	}
}

// attachClone maps s a second time through dup'd descriptors, standing in
// for the child's view of the segment. The clone is closed by the test via
// the segment-wide close semantics (closing either view closes the rings
// for both — they share the header flags).
func attachClone(t *testing.T, s *Segment) *Segment {
	t.Helper()
	segFile, bells := dupFiles(t, s)
	att, err := Attach(segFile, bells)
	if err != nil {
		segFile.Close()
		for _, b := range bells {
			b.Close()
		}
		t.Fatalf("Attach: %v", err)
	}
	t.Cleanup(func() { att.Close() })
	return att
}

// dupFiles duplicates s's ChildFiles descriptors, split the way Attach takes
// them: the segment file, then the doorbells.
func dupFiles(t *testing.T, s *Segment) (*os.File, []*os.File) {
	t.Helper()
	files := s.ChildFiles()
	dups := make([]*os.File, len(files))
	for i, f := range files {
		fd, err := syscall.Dup(int(f.Fd()))
		if err != nil {
			t.Fatalf("dup: %v", err)
		}
		dups[i] = os.NewFile(uintptr(fd), f.Name())
	}
	return dups[0], dups[1:]
}

// TestMultiRingSegmentGeometry pins the v2 layout: New carves one command
// and one reply ring, the directory places them back to back, both
// directions move bytes independently, and the epoch advances under
// AdvanceEpoch.
func TestMultiRingSegmentGeometry(t *testing.T) {
	s, err := New(8<<10, 16<<10)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	rings := s.Rings()
	if len(rings) != segRings {
		t.Fatalf("New carved %d rings, want %d", len(rings), segRings)
	}
	if s.Cmd() != rings[0] || s.Reply() != rings[1] {
		t.Fatal("Cmd/Reply accessors do not alias rings 0 and 1")
	}
	if d := s.hdr.dir; s.hdr.nrings != segRings ||
		d[0].off != segHdrBytes || d[0].cap != 8<<10 ||
		d[1].off != d[0].off+ringHdrBytes+d[0].cap || d[1].cap != 16<<10 {
		t.Fatalf("directory = %d rings %+v", s.hdr.nrings, d)
	}
	// 1 segment file + 2 bells per ring.
	if got, want := len(s.ChildFiles()), 1+2*segRings; got != want {
		t.Fatalf("ChildFiles = %d files, want %d", got, want)
	}

	for i, r := range rings {
		msg := []byte{byte(i), 0xAA}
		if _, err := r.Write(msg); err != nil {
			t.Fatalf("ring %d write: %v", i, err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(r, got); err != nil {
			t.Fatalf("ring %d read: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("ring %d: got %v want %v", i, got, msg)
		}
	}

	if e := s.Epoch(); e != 0 {
		t.Fatalf("fresh segment epoch = %d, want 0", e)
	}
	s.AdvanceEpoch()
	if e := s.Epoch(); e != 1 {
		t.Fatalf("epoch after advance = %d, want 1", e)
	}
}

// TestMultiRingAttachSharesEpoch: an attached view reads the same control
// region — epoch bumps on one side are visible on the other, and the
// directory reproduces the creator's ring geometry.
func TestMultiRingAttachSharesEpoch(t *testing.T) {
	s, err := New(0, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	att := attachClone(t, s)

	if len(att.Rings()) != len(s.Rings()) {
		t.Fatalf("attach carved %d rings, creator has %d", len(att.Rings()), len(s.Rings()))
	}
	s.AdvanceEpoch()
	s.AdvanceEpoch()
	if got := att.Epoch(); got != 2 {
		t.Fatalf("attached view reads epoch %d, want 2", got)
	}

	// Cross-view traffic on the reply ring: creator writes it, the attached
	// view reads it out of the same memory.
	if _, err := s.Reply().Write([]byte("reply")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(att.Reply(), got); err != nil || string(got) != "reply" {
		t.Fatalf("cross-view read = %q, %v", got, err)
	}
}

// TestAttachRejectsBadSegments: attach must fail cleanly on garbage — wrong
// magic, impossible geometry, or a bell count that does not match the
// directory — rather than carving rings out of lies.
func TestAttachRejectsBadSegments(t *testing.T) {
	junk, err := os.CreateTemp(t.TempDir(), "junk")
	if err != nil {
		t.Fatal(err)
	}
	defer junk.Close()
	if err := junk.Truncate(int64(segHdrBytes + 2*(ringHdrBytes+minRingBytes))); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(junk, make([]*os.File, 4)); err == nil {
		t.Fatal("Attach accepted a zeroed (magic-less) segment")
	}

	s := newTestSegment(t, 0, 0)
	files := s.ChildFiles()
	if _, err := Attach(files[0], files[1:3]); err == nil {
		t.Fatal("Attach accepted a bell count that cannot cover the rings")
	}

	// A directory claiming a second ring pair (as a peer built for a
	// multi-pair layout would write) is foreign, however many bells come
	// with it.
	multi := newTestSegment(t, 0, 0)
	multi.hdr.nrings = 2 * segRings
	segFile, bells := dupFiles(t, multi)
	if _, err := Attach(segFile, bells); err == nil {
		t.Fatal("Attach accepted a directory with more than one ring pair")
	}
}

// TestRingStatsAfterSegmentClose: Stats must stay callable after Close
// unmapped the segment, reporting the final snapshot instead of faulting on
// dead memory.
func TestRingStatsAfterSegmentClose(t *testing.T) {
	s := newTestSegment(t, 0, 0)
	r := s.Cmd()

	done := make(chan struct{})
	go func() {
		var b [1]byte
		io.ReadFull(r, b[:])
		close(done)
	}()
	waitFor(t, func() bool { return r.Stats().Parks >= 1 })
	if _, err := r.Write([]byte{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	<-done

	live := r.Stats()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	final := r.Stats()
	if final.Doorbells != live.Doorbells || final.Suppressed != live.Suppressed {
		t.Fatalf("post-close stats %+v lost the pre-close counters %+v", final, live)
	}
	// And again, for the detached-snapshot path's idempotence.
	if again := r.Stats(); again != final {
		t.Fatalf("second post-close Stats %+v != first %+v", again, final)
	}
}

// TestBatchedWritesSuppressDoorbells: without explicit brackets, back-to-back
// writes against a RUNNING (not parked) reader should suppress almost every
// bell — the Dekker check sees the reader awake and skips the syscall.
func TestBatchedWritesSuppressDoorbells(t *testing.T) {
	s := newTestSegment(t, 0, 0)
	r := s.Cmd()

	const total = 32 * 1024
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 4096)
		seen := 0
		for seen < total {
			n, err := r.Read(buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			seen += n
		}
	}()

	chunk := make([]byte, 256)
	for sent := 0; sent < total; sent += len(chunk) {
		if _, err := r.Write(chunk); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	wg.Wait()

	st := r.Stats()
	if st.Suppressed == 0 {
		t.Fatalf("no suppression across %d writes against a mostly-running reader: %+v",
			total/len(chunk), st)
	}
	if errs := s.Close(); errs != nil {
		t.Fatalf("Close: %v", errs)
	}
}
