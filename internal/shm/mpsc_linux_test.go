//go:build linux

package shm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// drainAll pumps q.Drain until io.EOF, forwarding records to fn.
func drainAll(t *testing.T, q *MPSCQueue, fn func(lane uint16, kind RecordKind, payload []byte)) {
	t.Helper()
	for {
		err := q.Drain(fn)
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			t.Errorf("drain: %v", err)
			return
		}
	}
}

// TestMPSCBasic round-trips records of every kind across lanes and checks
// payloads, kinds, and lane tags survive.
func TestMPSCBasic(t *testing.T) {
	seg, err := NewMPSC(8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	q := seg.Cmd()
	f3, d3 := q.LaneProducers(3)
	if _, err := f3.Write([]byte("frame-bytes")); err != nil {
		t.Fatal(err)
	}
	if _, err := d3.Write([]byte("data-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := q.SendEOS(3); err != nil {
		t.Fatal(err)
	}

	type rec struct {
		lane    uint16
		kind    RecordKind
		payload string
	}
	var got []rec
	for len(got) < 3 {
		if err := q.Drain(func(lane uint16, kind RecordKind, p []byte) {
			got = append(got, rec{lane, kind, string(p)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := []rec{
		{3, RecordFrame, "frame-bytes"},
		{3, RecordData, "data-bytes"},
		{3, RecordEOS, ""},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestMPSCWrapPad forces records across the wrap boundary of a minimal queue
// and checks the pad discipline keeps every record contiguous and intact.
func TestMPSCWrapPad(t *testing.T) {
	seg, err := NewMPSC(2, minRingBytes, minRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	q := seg.Cmd()
	p := q.Producer(0, RecordFrame)

	// Odd-sized records walk the head across the boundary repeatedly.
	payload := make([]byte, 760)
	var consumed int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drainAll(t, q, func(lane uint16, kind RecordKind, b []byte) {
			if len(b) != len(payload) {
				t.Errorf("record %d arrived %d bytes, want %d", consumed, len(b), len(payload))
			}
			for i := range b {
				if b[i] != byte(consumed) {
					t.Errorf("record %d corrupt at offset %d", consumed, i)
					break
				}
			}
			consumed++
		})
	}()
	const records = 200
	for i := 0; i < records; i++ {
		for j := range payload {
			payload[j] = byte(i)
		}
		if _, err := p.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	seg.Cmd().close()
	wg.Wait()
	if consumed != records {
		t.Fatalf("consumed %d records, want %d", consumed, records)
	}
}

// TestMPSCRandomizedProducers is the multi-producer race drill: many
// goroutines submit randomized record schedules into one queue while a
// single consumer verifies that every lane's stream arrives complete, in
// per-lane order, and uncorrupted.
func TestMPSCRandomizedProducers(t *testing.T) {
	seg, err := NewMPSC(16, 64<<10, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	q := seg.Cmd()

	const (
		producers = 8
		perLane   = 300
	)
	type seen struct {
		next  uint32
		total int
	}
	lanes := make([]seen, producers)
	var consumerWG sync.WaitGroup
	consumerWG.Add(1)
	go func() {
		defer consumerWG.Done()
		drainAll(t, q, func(lane uint16, kind RecordKind, b []byte) {
			if kind != RecordFrame || len(b) < 8 {
				t.Errorf("lane %d: unexpected record kind=%d len=%d", lane, kind, len(b))
				return
			}
			gotLane := binary.LittleEndian.Uint16(b)
			seq := binary.LittleEndian.Uint32(b[2:])
			s := &lanes[lane]
			if gotLane != lane {
				t.Errorf("lane %d record self-describes lane %d", lane, gotLane)
			}
			if seq != s.next {
				t.Errorf("lane %d: seq %d, want %d (reordered stream)", lane, seq, s.next)
			}
			for i := 8; i < len(b); i++ {
				if b[i] != byte(seq) {
					t.Errorf("lane %d seq %d corrupt at %d", lane, seq, i)
					break
				}
			}
			s.next = seq + 1
			s.total++
		})
	}()

	var prodWG sync.WaitGroup
	for lane := 0; lane < producers; lane++ {
		prodWG.Add(1)
		go func(lane uint16) {
			defer prodWG.Done()
			rng := rand.New(rand.NewSource(int64(lane) * 7919))
			p := q.Producer(lane, RecordFrame)
			buf := make([]byte, 8+2048)
			for seq := uint32(0); seq < perLane; seq++ {
				n := 8 + rng.Intn(2048)
				binary.LittleEndian.PutUint16(buf, lane)
				binary.LittleEndian.PutUint32(buf[2:], seq)
				for i := 8; i < n; i++ {
					buf[i] = byte(seq)
				}
				var werr error
				if rng.Intn(4) == 0 {
					p.BeginFlush()
					_, werr = p.Write(buf[:n])
					p.EndFlush()
				} else {
					_, werr = p.Write(buf[:n])
				}
				if werr != nil {
					t.Errorf("lane %d write: %v", lane, werr)
					return
				}
			}
		}(uint16(lane))
	}
	prodWG.Wait()
	q.close()
	consumerWG.Wait()
	for lane := range lanes {
		if lanes[lane].total != perLane {
			t.Errorf("lane %d delivered %d records, want %d", lane, lanes[lane].total, perLane)
		}
	}
}

// TestMPSCBackpressureMidFlush parks a producer on a full queue in the
// middle of a flush-coalescing bracket: the deferred doorbell must be
// released before the producer sleeps, or producer and consumer would park
// facing each other forever.
func TestMPSCBackpressureMidFlush(t *testing.T) {
	seg, err := NewMPSC(2, minRingBytes, minRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	q := seg.Cmd()
	p := q.Producer(0, RecordFrame)

	var consumed int
	done := make(chan struct{})
	go func() {
		defer close(done)
		drainAll(t, q, func(uint16, RecordKind, []byte) { consumed++ })
	}()

	// Everything below rides one bracket; total volume is several times the
	// queue capacity, so the producer must park (and wake the consumer) many
	// times before EndFlush ever runs.
	const records = 64
	payload := make([]byte, 512)
	p.BeginFlush()
	for i := 0; i < records; i++ {
		if _, err := p.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	p.EndFlush()
	q.close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never drained: mid-flush backpressure deadlocked")
	}
	if consumed != records {
		t.Fatalf("consumed %d records, want %d", consumed, records)
	}
}

// TestMPSCCloseReleasesParkedProducers fills the queue with no consumer,
// parks several producers on the space bell, then closes: the single close
// token must relay through every parked producer.
func TestMPSCCloseReleasesParkedProducers(t *testing.T) {
	seg, err := NewMPSC(4, minRingBytes, minRingBytes)
	if err != nil {
		t.Fatal(err)
	}
	q := seg.Cmd()

	// Fill to the brim: no consumer will ever make space.
	filler := q.Producer(0, RecordFrame)
	for {
		free := uint64(len(q.data)) - (q.hdr.head.Load() - q.hdr.tail.Load())
		if free < 256 {
			break
		}
		if _, err := filler.Write(make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}

	const blocked = 3
	errs := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func(lane uint16) {
			p := q.Producer(lane, RecordFrame)
			_, err := p.Write(make([]byte, 1024))
			errs <- err
		}(uint16(i + 1))
	}
	time.Sleep(50 * time.Millisecond) // let them burn their spin budgets and park
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked producer returned %v, want ErrClosed", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("parked producer never released by close (lost relay token)")
		}
	}
}

// TestMPSCLaneTable exercises the claim → draining → free lifecycle and the
// exhaustion path.
func TestMPSCLaneTable(t *testing.T) {
	seg, err := NewMPSC(4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	var lanes []uint16
	for {
		lane, ok := seg.ClaimLane()
		if !ok {
			break
		}
		lanes = append(lanes, lane)
	}
	if len(lanes) != 4 {
		t.Fatalf("claimed %d lanes, want 4", len(lanes))
	}
	if c, d := seg.LaneCounts(); c != 4 || d != 0 {
		t.Fatalf("counts after claim = (%d,%d), want (4,0)", c, d)
	}
	seg.ReleaseLane(lanes[1])
	if _, ok := seg.ClaimLane(); ok {
		t.Fatal("draining lane was reclaimable before quiesce")
	}
	if c, d := seg.LaneCounts(); c != 3 || d != 1 {
		t.Fatalf("counts after release = (%d,%d), want (3,1)", c, d)
	}
	seg.QuiesceLane(lanes[1])
	if lane, ok := seg.ClaimLane(); !ok || lane != lanes[1] {
		t.Fatalf("quiesced lane not reclaimed: got (%d,%v)", lane, ok)
	}
}

// TestMPSCFDBudget pins the tentpole's descriptor claim at the segment
// level: one MPSC segment costs five descriptors (backing file + four
// doorbells) regardless of how many lanes are claimed on it.
func TestMPSCFDBudget(t *testing.T) {
	before := SnapshotFDs()
	seg, err := NewMPSC(MaxLanes, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < MaxLanes; i++ {
		if _, ok := seg.ClaimLane(); !ok {
			t.Fatalf("lane %d refused", i)
		}
	}
	mid := SnapshotFDs()
	if got := mid.DoorbellFDs - before.DoorbellFDs; got != 4 {
		t.Fatalf("doorbell fds for %d sessions = %d, want 4 (O(1) per segment)", MaxLanes, got)
	}
	if got := mid.SegmentFiles - before.SegmentFiles; got != 1 {
		t.Fatalf("segment files = %d, want 1", got)
	}
	if got := mid.LaneSessions - before.LaneSessions; got != MaxLanes {
		t.Fatalf("lane sessions gauge = %d, want %d", got, MaxLanes)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	after := SnapshotFDs()
	if after.Segments != before.Segments || after.DoorbellFDs != before.DoorbellFDs {
		t.Fatalf("fd gauges did not return to baseline: %+v vs %+v", after, before)
	}
}

// TestMPSCTornAdoption closes a segment while producers and the consumer are
// mid-operation — the torn-adoption teardown drill extended to concurrent
// producers: everything must unwind without touching unmapped memory.
func TestMPSCTornAdoption(t *testing.T) {
	for round := 0; round < 20; round++ {
		seg, err := NewMPSC(8, minRingBytes, minRingBytes)
		if err != nil {
			t.Fatal(err)
		}
		q := seg.Cmd()
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(lane uint16) {
				defer wg.Done()
				p := q.Producer(lane, RecordFrame)
				buf := bytes.Repeat([]byte{byte(lane)}, 256)
				for {
					if _, err := p.Write(buf); err != nil {
						return
					}
				}
			}(uint16(i))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			drainAll(t, q, func(uint16, RecordKind, []byte) {})
		}()
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
