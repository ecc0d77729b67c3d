package wire

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

// gateWriter blocks inside Write until released, recording each call's
// length. It lets tests hold a flush open so later submissions provably
// coalesce into the next batch.
type gateWriter struct {
	mu      sync.Mutex
	entered chan struct{} // signaled on each Write entry
	release chan struct{} // each Write waits for one token
	writes  [][]byte
}

func newGateWriter() *gateWriter {
	return &gateWriter{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	g.mu.Unlock()
	return len(p), nil
}

func (g *gateWriter) stream() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	var all []byte
	for _, w := range g.writes {
		all = append(all, w...)
	}
	return all
}

func (g *gateWriter) calls() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.writes)
}

func TestBatchWriterSingleFrameFlushesImmediately(t *testing.T) {
	var out bytes.Buffer
	bw := NewBatchWriter(&out, nil)
	req := &Request{Op: OpRead, Seq: 7, Off: 40, N: 8}
	if err := bw.WriteRequest(req); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	got, err := NewReader(&out).ReadRequest()
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if got.Op != OpRead || got.Seq != 7 || got.Off != 40 || got.N != 8 {
		t.Fatalf("decoded %+v, want the submitted request", got)
	}
	if s := bw.Stats(); s.Flushes != 1 || s.Frames != 1 {
		t.Fatalf("stats = %+v, want 1 flush / 1 frame", s)
	}
}

func TestBatchWriterCoalescesConcurrentSubmissions(t *testing.T) {
	const followers = 6
	g := newGateWriter()
	bw := NewBatchWriter(g, nil)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // leader: its flush blocks in the gate
		defer wg.Done()
		if err := bw.WriteRequest(&Request{Op: OpRead, Seq: 1}); err != nil {
			t.Errorf("leader WriteRequest: %v", err)
		}
	}()
	<-g.entered // leader is inside Write(batch 1)

	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(seq uint32) {
			defer wg.Done()
			if err := bw.WriteRequest(&Request{Op: OpSize, Seq: seq}); err != nil {
				t.Errorf("follower WriteRequest: %v", err)
			}
		}(uint32(100 + i))
	}
	// Wait until every follower has appended to the accumulating batch.
	deadline := time.Now().Add(5 * time.Second)
	for {
		bw.mu.Lock()
		n := 0
		if bw.cur != nil {
			n = bw.cur.frames
		}
		bw.mu.Unlock()
		if n == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers accumulated", n, followers)
		}
		time.Sleep(time.Millisecond)
	}

	g.release <- struct{}{} // finish batch 1
	<-g.entered             // leader starts batch 2 (all followers)
	g.release <- struct{}{}
	wg.Wait()

	if got := g.calls(); got != 2 {
		t.Fatalf("writer saw %d writes, want 2 (leader + coalesced batch)", got)
	}
	r := NewReader(bytes.NewReader(g.stream()))
	seen := map[uint32]bool{}
	for i := 0; i < followers+1; i++ {
		req, err := r.ReadRequest()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		seen[req.Seq] = true
	}
	if !seen[1] || len(seen) != followers+1 {
		t.Fatalf("decoded seqs %v, want leader + %d followers", seen, followers)
	}
	if s := bw.Stats(); s.Flushes != 2 || s.Frames != followers+1 {
		t.Fatalf("stats = %+v, want 2 flushes / %d frames", s, followers+1)
	}
}

func TestBatchWriterLargePayloadByReference(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, inlinePayload*3)
	var out bytes.Buffer
	bw := NewBatchWriter(&out, nil)
	if err := bw.WriteRequest(&Request{Op: OpWrite, Seq: 9, Off: 4, Data: payload}); err != nil {
		t.Fatalf("WriteRequest: %v", err)
	}
	// A small frame after the large one must still land on a clean boundary.
	if err := bw.WriteResponse(&Response{Status: StatusOK, Seq: 9, N: int64(len(payload))}); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	r := NewReader(bytes.NewReader(out.Bytes()))
	req, err := r.ReadRequest()
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if !bytes.Equal(req.Data, payload) {
		t.Fatalf("payload corrupted: got %d bytes", len(req.Data))
	}
	resp, err := r.ReadResponse()
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if resp.Seq != 9 || resp.N != int64(len(payload)) {
		t.Fatalf("trailing response decoded as %+v", resp)
	}
}

func TestBatchWriterLargeResponseDataByReference(t *testing.T) {
	data := bytes.Repeat([]byte{0x5C}, inlinePayload+1)
	var out bytes.Buffer
	bw := NewBatchWriter(&out, nil)
	if err := bw.WriteResponse(&Response{Status: StatusEOF, Seq: 3, Msg: "end", Data: data}); err != nil {
		t.Fatalf("WriteResponse: %v", err)
	}
	resp, err := NewReader(bytes.NewReader(out.Bytes())).ReadResponse()
	if err != nil {
		t.Fatalf("ReadResponse: %v", err)
	}
	if resp.Status != StatusEOF || resp.Msg != "end" || !bytes.Equal(resp.Data, data) {
		t.Fatalf("decoded %+v (%d data bytes)", resp.Status, len(resp.Data))
	}
}

// brokenWriter fails every write.
type brokenWriter struct{ err error }

func (b brokenWriter) Write([]byte) (int, error) { return 0, b.err }

func TestBatchWriterTransportErrorIsSticky(t *testing.T) {
	boom := errors.New("pipe gone")
	bw := NewBatchWriter(brokenWriter{err: boom}, nil)
	if err := bw.WriteRequest(&Request{Op: OpRead}); !errors.Is(err, boom) {
		t.Fatalf("first write err = %v, want %v", err, boom)
	}
	if err := bw.WriteRequest(&Request{Op: OpRead}); !errors.Is(err, boom) {
		t.Fatalf("sticky err = %v, want %v", err, boom)
	}
}

func TestBatchWriterValidationErrorLeavesStreamHealthy(t *testing.T) {
	var out bytes.Buffer
	bw := NewBatchWriter(&out, nil)
	if err := bw.WriteRequest(&Request{Op: Op(200)}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("bad op err = %v, want ErrBadOp", err)
	}
	if err := bw.WriteResponse(&Response{Status: Status(200)}); !errors.Is(err, ErrBadStatus) {
		t.Fatalf("bad status err = %v, want ErrBadStatus", err)
	}
	if err := bw.WriteRequest(&Request{Op: OpSync, Seq: 2}); err != nil {
		t.Fatalf("healthy write after validation error: %v", err)
	}
	req, err := NewReader(&out).ReadRequest()
	if err != nil || req.Op != OpSync {
		t.Fatalf("stream after validation errors: req=%+v err=%v", req, err)
	}
}

func TestBatchWriterPostKeepsDataOrder(t *testing.T) {
	var ctrl, data bytes.Buffer
	bw := NewBatchWriter(&ctrl, &data)
	var want []byte
	for i := 0; i < 20; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 10+i*300) // crosses the inline threshold
		if err := bw.WritePost(&Request{Op: OpWrite, Seq: uint32(i + 1), N: int64(len(p))}, p); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
		want = append(want, p...)
	}
	if !bytes.Equal(data.Bytes(), want) {
		t.Fatalf("data channel bytes diverge from post order")
	}
	r := NewReader(bytes.NewReader(ctrl.Bytes()))
	for i := 0; i < 20; i++ {
		req, err := r.ReadRequest()
		if err != nil || req.Seq != uint32(i+1) {
			t.Fatalf("command %d: req=%+v err=%v", i, req, err)
		}
	}
}

func TestBatchWriterPostWithoutDataChannel(t *testing.T) {
	bw := NewBatchWriter(&bytes.Buffer{}, nil)
	if err := bw.WritePost(&Request{Op: OpWrite, N: 4}, []byte("data")); !errors.Is(err, ErrNoDataChannel) {
		t.Fatalf("err = %v, want ErrNoDataChannel", err)
	}
	if err := bw.WritePost(&Request{Op: OpClose}, nil); err != nil {
		t.Fatalf("payload-less post without data channel: %v", err)
	}
}

func TestBatchWriterConcurrentMixedTraffic(t *testing.T) {
	var ctrl, data lockedBuffer
	bw := NewBatchWriter(&ctrl, &data)
	const goroutines, perG = 8, 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seq := uint32(g*perG + i + 1)
				var err error
				switch i % 3 {
				case 0:
					err = bw.WriteRequest(&Request{Op: OpRead, Seq: seq, N: 64})
				case 1:
					err = bw.WriteRequest(&Request{Op: OpControl, Seq: seq, Data: bytes.Repeat([]byte{byte(g)}, 3000)})
				default:
					err = bw.WritePost(&Request{Op: OpWrite, Seq: seq, N: 8}, []byte("12345678"))
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Every frame must decode cleanly from the interleaved stream.
	r := NewReader(bytes.NewReader(ctrl.bytes()))
	decoded := 0
	for {
		if _, err := r.ReadRequest(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("frame %d: stream desynchronized: %v", decoded, err)
			}
			break
		}
		decoded++
	}
	if decoded != goroutines*perG {
		t.Fatalf("decoded %d frames, want %d", decoded, goroutines*perG)
	}
	s := bw.Stats()
	if s.Frames != uint64(goroutines*perG) {
		t.Fatalf("stats.Frames = %d, want %d", s.Frames, goroutines*perG)
	}
	if s.Flushes > s.Frames {
		t.Fatalf("flushes %d exceed frames %d", s.Flushes, s.Frames)
	}
	t.Logf("batching factor: %.2f frames/flush", float64(s.Frames)/float64(s.Flushes))
}

// lockedBuffer is a bytes.Buffer safe for the test's concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedBuffer) bytes() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.buf.Bytes()...)
}

// TestBatchWriterOverPipesMatchesBufferEncoding flushes an inline frame and
// a by-reference posted payload through real pipe descriptors and checks
// both channels carry exactly the bytes the same calls encode into memory.
func TestBatchWriterOverPipesMatchesBufferEncoding(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 3*inlinePayload) // carried by reference
	submit := func(bw *BatchWriter) {
		t.Helper()
		if err := bw.WriteRequest(&Request{Op: OpRead, Seq: 1, N: 64}); err != nil {
			t.Fatalf("WriteRequest: %v", err)
		}
		if err := bw.WritePost(&Request{Op: OpWrite, Seq: 2, N: int64(len(payload))}, payload); err != nil {
			t.Fatalf("WritePost: %v", err)
		}
	}

	var wantCtrl, wantData bytes.Buffer
	submit(NewBatchWriter(&wantCtrl, &wantData))

	pipe := func() (*os.File, *os.File, chan []byte) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(r)
			r.Close()
			got <- b
		}()
		return r, w, got
	}
	_, cw, gotCtrl := pipe()
	_, dw, gotData := pipe()
	bw := NewBatchWriter(cw, dw)
	submit(bw)
	cw.Close()
	dw.Close()

	if got := <-gotCtrl; !bytes.Equal(got, wantCtrl.Bytes()) {
		t.Fatalf("control pipe carried %d bytes, want %d identical to the buffer encoding", len(got), wantCtrl.Len())
	}
	if got := <-gotData; !bytes.Equal(got, wantData.Bytes()) {
		t.Fatalf("data pipe carried %d bytes, want %d identical to the buffer encoding", len(got), wantData.Len())
	}
}

// TestBatchWriterFrameCrossesPipe: a frame flushed into a real pipe decodes
// intact on the reading end, with the writer blocked until the reader drains.
func TestBatchWriterFrameCrossesPipe(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	bw := NewBatchWriter(w, nil)

	done := make(chan error, 1)
	go func() { done <- bw.WriteRequest(&Request{Op: OpRead, Seq: 7, N: 32}) }()
	req, err := NewReader(r).ReadRequest()
	if err != nil {
		t.Fatalf("ReadRequest: %v", err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("WriteRequest: %v", werr)
	}
	if req.Op != OpRead || req.Seq != 7 || req.N != 32 {
		t.Fatalf("frame mangled crossing the pipe: %+v", req)
	}
}

// TestBatchWriterBackendIsPortable: fd and non-fd writers alike flush
// through the portable vectored path, and Stats says so.
func TestBatchWriterBackendIsPortable(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	for _, bw := range []*BatchWriter{NewBatchWriter(w, nil), NewBatchWriter(io.Discard, nil)} {
		if got := bw.Stats().Backend; got != "portable" {
			t.Fatalf("Stats().Backend = %q, want portable", got)
		}
	}
}

func TestSpliceRefs(t *testing.T) {
	cases := []struct {
		name string
		buf  string
		refs []payloadRef
		want []string
	}{
		{"empty", "", nil, nil},
		{"inline only", "abcdef", nil, []string{"abcdef"}},
		{"ref mid", "abcd", []payloadRef{{pos: 2, data: []byte("XY")}}, []string{"ab", "XY", "cd"}},
		{"ref at start", "abcd", []payloadRef{{pos: 0, data: []byte("XY")}}, []string{"XY", "abcd"}},
		{"ref at end", "abcd", []payloadRef{{pos: 4, data: []byte("XY")}}, []string{"abcd", "XY"}},
		{"adjacent refs", "ab", []payloadRef{{pos: 2, data: []byte("X")}, {pos: 2, data: []byte("Y")}},
			[]string{"ab", "X", "Y"}},
	}
	for _, tc := range cases {
		segs := spliceRefs([]byte(tc.buf), tc.refs)
		var got []string
		for _, s := range segs {
			got = append(got, string(s))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: spliceRefs = %q, want %q", tc.name, got, tc.want)
		}
	}
}
