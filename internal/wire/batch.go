package wire

import (
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// BatchWriter serializes frames from many goroutines onto one io.Writer,
// opportunistically coalescing concurrent submissions into a single vectored
// write — group commit for the framed protocol.
//
// The discipline is leader/follower. A submitter encodes its frame into the
// current batch under the lock. If no flush is running it becomes the leader:
// it takes the batch, releases the lock, and writes the whole batch in one
// Write (or one net.Buffers writev when large payloads are carried by
// reference). Frames submitted while that write is in flight accumulate into
// the next batch, which the same leader drains before retiring. A lone
// submitter therefore flushes immediately — batching adds no latency — while
// N concurrent submitters share ~1 syscall instead of paying N.
//
// Payloads of at most inlinePayload bytes are copied into the batch buffer
// (one contiguous write); larger payloads are recorded by reference and
// stitched into a net.Buffers at flush time, so bulk data is never memcpy'd.
// Because referenced payloads are read during the flush, a submitter's buffer
// is released only when its submission returns — which is after the flush
// that carried it completes — making pooled buffers safe.
//
// Error discipline matches wire.Writer users' expectations: validation
// failures (ErrFrameTooLarge, ErrBadOp, ErrBadStatus) are reported to the
// submitter before the batch is touched and leave the stream intact. A
// transport failure may have left a partial batch on the stream, so it is
// sticky: the failed batch's submitters all receive the error, and every
// later submission fails immediately with it.
type BatchWriter struct {
	mu       sync.Mutex
	w        io.Writer
	data     io.Writer      // optional side channel for posted payloads
	fc       FlushCoalescer // w's doorbell-deferral hook, when it has one (shm ring)
	cur      *pendingBatch
	flushing bool
	err      error // sticky transport failure

	hint func() int // optional in-flight load estimate, called unlocked

	flushes atomic.Uint64 // write calls issued (syscall proxy)
	frames  atomic.Uint64 // frames carried by those writes
}

// Group-commit courting. Opportunistic coalescing alone only batches frames
// whose submissions physically overlap a flush — but pipelined request/reply
// traffic paces arrivals by response latency (tens of µs) while a pipe write
// lasts ~2µs, so flush windows almost never collide and the batching factor
// stays at 1.0. When a load hint reports a deep pipeline, the flush leader
// instead courts company: it waits up to courtWait for at least one more
// frame to join the batch before writing. A lone submitter (load below
// courtMinLoad) never waits, so unpipelined latency is untouched; courtWait
// is a few percent of the round-trip that deep pipelines already pay, bought
// back immediately by halving (or better) the write syscalls.
const (
	// courtWait bounds how long a leader waits for company.
	courtWait = 50 * time.Microsecond
	// courtMinLoad is the in-flight depth at which courting turns on.
	courtMinLoad = 3
	// courtMaxFrames caps how many frames a leader waits for. Sized to the
	// deepest pipelines the bench sweep drives; beyond it the marginal
	// syscall saved no longer covers the added head-of-batch latency.
	courtMaxFrames = 16
)

// SetLoadHint installs a callback estimating in-flight exchanges (e.g. a
// mux's pending-reply count). It is invoked without BatchWriter's lock held,
// so it may take the caller's own locks. Nil (the default) disables courting.
func (b *BatchWriter) SetLoadHint(hint func() int) {
	b.mu.Lock()
	b.hint = hint
	b.mu.Unlock()
}

// court spins (yielding) until the current batch holds enough company for
// the reported load or the courting window closes. Called by the flush
// leader with flushing set and the lock released.
func (b *BatchWriter) court(load int) {
	want := load
	if want > courtMaxFrames {
		want = courtMaxFrames
	}
	if want < 2 {
		want = 2
	}
	deadline := time.Now().Add(courtWait)
	for {
		b.mu.Lock()
		n := 0
		if b.cur != nil {
			n = b.cur.frames
		}
		b.mu.Unlock()
		if n >= want || !time.Now().Before(deadline) {
			return
		}
		runtime.Gosched()
	}
}

// payloadRef marks a by-reference payload spliced into buf at pos.
type payloadRef struct {
	pos  int
	data []byte
}

// pendingBatch accumulates encoded frames awaiting one flush.
type pendingBatch struct {
	buf      []byte       // encoded envelopes + inline payloads
	refs     []payloadRef // large payloads, by reference
	dataBuf  []byte       // posted payloads for the data side channel
	dataRefs []payloadRef
	frames   int
	done     chan struct{} // closed when the flush completes
	err      error         // flush outcome, valid after done
}

// NewBatchWriter returns a batching frame writer over w. When data is
// non-nil, WritePost streams payloads on it in command order. A w that
// coalesces flushes (FlushCoalescer — the shm ring's doorbell deferral) is
// detected here once and bracketed on every flush.
func NewBatchWriter(w, data io.Writer) *BatchWriter {
	fc, _ := w.(FlushCoalescer)
	return &BatchWriter{w: w, data: data, fc: fc}
}

// HasData reports whether a payload side channel is configured.
func (b *BatchWriter) HasData() bool { return b.data != nil }

// BatchStats is a point-in-time snapshot of flush amortization.
type BatchStats struct {
	Flushes uint64 // vectored writes issued
	Frames  uint64 // frames those writes carried
	Backend string // submission path; always "portable" (plain vectored writes)
}

// Stats returns cumulative flush counters. Frames/Flushes is the batching
// factor: 1.0 means no coalescing, N means N frames per syscall.
func (b *BatchWriter) Stats() BatchStats {
	return BatchStats{Flushes: b.flushes.Load(), Frames: b.frames.Load(), Backend: "portable"}
}

// appendRequestFrame encodes r into the batch: envelope (plus inline payload)
// into buf, oversized payloads by reference. Validation failures leave the
// batch untouched.
func appendRequestFrame(p *pendingBatch, r *Request) error {
	if len(r.Data) <= inlinePayload {
		buf, err := AppendRequest(p.buf, r)
		if err != nil {
			return err
		}
		p.buf = buf
		return nil
	}
	if len(r.Data) > MaxPayload {
		return ErrFrameTooLarge
	}
	if !r.Op.Valid() {
		return ErrBadOp
	}
	hdr := Request{Op: r.Op, Seq: r.Seq, Off: r.Off, N: r.N}
	buf, err := AppendRequest(p.buf, &hdr)
	if err != nil {
		return err
	}
	// Rewrite the announced frame length to include the referenced payload.
	putFrameLen(buf[len(p.buf):], reqHeaderLen+len(r.Data))
	p.buf = buf
	p.refs = append(p.refs, payloadRef{pos: len(p.buf), data: r.Data})
	return nil
}

// appendResponseFrame is appendRequestFrame for responses.
func appendResponseFrame(p *pendingBatch, r *Response) error {
	if len(r.Data) <= inlinePayload {
		buf, err := AppendResponse(p.buf, r)
		if err != nil {
			return err
		}
		p.buf = buf
		return nil
	}
	if len(r.Data) > MaxPayload || len(r.Msg) > MaxPayload {
		return ErrFrameTooLarge
	}
	if !r.Status.Valid() {
		return ErrBadStatus
	}
	if rspHeaderLen+len(r.Msg)+len(r.Data) > maxFrame {
		return ErrFrameTooLarge
	}
	hdr := Response{Status: r.Status, Seq: r.Seq, N: r.N, Msg: r.Msg}
	buf, err := AppendResponse(p.buf, &hdr)
	if err != nil {
		return err
	}
	putFrameLen(buf[len(p.buf):], rspHeaderLen+len(r.Msg)+len(r.Data))
	p.buf = buf
	p.refs = append(p.refs, payloadRef{pos: len(p.buf), data: r.Data})
	return nil
}

// putFrameLen overwrites the 4-byte length prefix at the start of frame.
func putFrameLen(frame []byte, n int) {
	frame[0] = byte(n >> 24)
	frame[1] = byte(n >> 16)
	frame[2] = byte(n >> 8)
	frame[3] = byte(n)
}

// WriteRequest submits one request frame, returning when the flush that
// carried it (or a validation failure) has decided its fate.
func (b *BatchWriter) WriteRequest(r *Request) error {
	return b.submit(func(p *pendingBatch) error { return appendRequestFrame(p, r) })
}

// WriteResponse submits one response frame.
func (b *BatchWriter) WriteResponse(r *Response) error {
	return b.submit(func(p *pendingBatch) error { return appendResponseFrame(p, r) })
}

// WritePost submits a command frame whose payload travels on the data side
// channel. Both are appended to the same batch under one lock acquisition, so
// payload order on the data channel always matches command order on the
// control channel, however many goroutines post concurrently. The frame's N
// field — not an inline payload — tells the peer how many data-channel bytes
// belong to it, matching Mux.Post's wire contract.
func (b *BatchWriter) WritePost(r *Request, payload []byte) error {
	if len(payload) > 0 && b.data == nil {
		return ErrNoDataChannel
	}
	if len(payload) > MaxPayload {
		return ErrFrameTooLarge
	}
	return b.submit(func(p *pendingBatch) error {
		if err := appendRequestFrame(p, r); err != nil {
			return err
		}
		if len(payload) == 0 {
			return nil
		}
		if len(payload) <= inlinePayload {
			p.dataBuf = append(p.dataBuf, payload...)
		} else {
			p.dataRefs = append(p.dataRefs, payloadRef{pos: len(p.dataBuf), data: payload})
		}
		return nil
	})
}

// ErrNoDataChannel reports a posted payload with no data channel configured.
var ErrNoDataChannel = errNoDataChannel{}

type errNoDataChannel struct{}

func (errNoDataChannel) Error() string { return "wire: no data channel for posted payload" }

// submit encodes one frame into the current batch via add and waits for the
// flush covering it. Exactly one submitter — the leader — performs writes;
// the rest block on their batch's completion.
func (b *BatchWriter) submit(add func(*pendingBatch) error) error {
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	if b.cur == nil {
		b.cur = &pendingBatch{done: make(chan struct{})}
	}
	if err := add(b.cur); err != nil {
		// Validation failure: nothing entered the batch, stream unharmed.
		b.mu.Unlock()
		return err
	}
	b.cur.frames++
	mine := b.cur
	if b.flushing {
		b.mu.Unlock()
		<-mine.done
		return mine.err
	}

	// Leader: drain batches until none accumulate, then retire.
	b.flushing = true
	hint := b.hint
	if hint != nil {
		// Court company for the first flush only: followers that arrive
		// during the writes below join later batches in this drain loop and
		// amortize for free.
		b.mu.Unlock()
		if load := hint(); load >= courtMinLoad {
			b.court(load)
		}
		b.mu.Lock()
	}
	myErr := error(nil)
	first := true
	for {
		batch := b.cur
		b.cur = nil
		b.mu.Unlock()

		err := b.writeBatch(batch)
		b.flushes.Add(1)
		b.frames.Add(uint64(batch.frames))
		batch.err = err
		close(batch.done)
		if first {
			myErr = err
			first = false
		}

		b.mu.Lock()
		if err != nil && b.err == nil {
			b.err = err
		}
		if b.err != nil && b.cur != nil {
			// Frames queued behind a failed flush can never ship: the stream
			// may hold a torn batch. Fail them as a group.
			stranded := b.cur
			b.cur = nil
			stranded.err = b.err
			close(stranded.done)
		}
		if b.cur == nil {
			b.flushing = false
			b.mu.Unlock()
			return myErr
		}
	}
}

// writeBatch emits one batch: control bytes first, then any posted payloads
// on the data channel. On a flush-coalescing channel the whole batch rides
// one doorbell decision — the bracket defers the ring's per-publish wake to
// EndFlush, so a group-committed flush rings at most once. Only one leader
// runs at a time (successive leaders are ordered by b.mu), which is what
// lets the coalescer keep plain state.
func (b *BatchWriter) writeBatch(p *pendingBatch) error {
	if b.fc != nil {
		b.fc.BeginFlush()
		defer b.fc.EndFlush()
	}
	if err := writeVectored(b.w, p.buf, p.refs); err != nil {
		return err
	}
	if len(p.dataBuf) > 0 || len(p.dataRefs) > 0 {
		if err := writeVectored(b.data, p.dataBuf, p.dataRefs); err != nil {
			return err
		}
	}
	return nil
}

// writeVectored writes buf with each ref's bytes spliced in at its recorded
// position — one Write when everything is inline, one net.Buffers WriteTo
// (writev on a net.Conn) otherwise.
func writeVectored(w io.Writer, buf []byte, refs []payloadRef) error {
	segs := spliceRefs(buf, refs)
	if len(segs) == 0 {
		return nil
	}
	if len(segs) == 1 {
		_, err := w.Write(segs[0])
		return err
	}
	_, err := segs.WriteTo(w)
	return err
}

// spliceRefs stitches by-reference payloads into buf at their recorded
// positions, producing the vectored form of one write. A nil return means
// there are no bytes to write.
func spliceRefs(buf []byte, refs []payloadRef) net.Buffers {
	if len(refs) == 0 {
		if len(buf) == 0 {
			return nil
		}
		return net.Buffers{buf}
	}
	segs := make(net.Buffers, 0, 2*len(refs)+1)
	prev := 0
	for _, ref := range refs {
		if ref.pos > prev {
			segs = append(segs, buf[prev:ref.pos])
		}
		segs = append(segs, ref.data)
		prev = ref.pos
	}
	if prev < len(buf) {
		segs = append(segs, buf[prev:])
	}
	return segs
}
