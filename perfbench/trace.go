package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// The traced run records spans from benchmark-owned code only: around the
// driver's calls into each layer, in a wrapper program registered in front
// of the built-in one, and in a wrapper backend handed to the file server.
// The program itself carries no tracing.
//
// Sentinel-side spans are recorded in another process (procctl), so they
// carry durations only: no clock crosses the process boundary. The wrapper
// appends a session's calls to a records file when the handler closes, and
// the driver parents each call to the application call it served by call
// sequence and key (operation, offset, length).

// traceParam names the manifest parameter carrying the records file path.
const traceParam = "perfbench.trace"

// tracedName is the registry name of the wrapper around a built-in program.
func tracedName(inner string) string { return "perfbench." + inner }

// registerTracedPrograms installs the wrappers. It runs before
// sentinel.MaybeChild so re-executed sentinels know them too.
func registerTracedPrograms() {
	for _, name := range []string{"passthrough", "cached"} {
		core.Register(tracedProgram{inner: name})
	}
}

// tracedProgram opens the wrapped program and times every handler call.
type tracedProgram struct{ inner string }

func (p tracedProgram) Name() string { return tracedName(p.inner) }

func (p tracedProgram) Open(env *core.Env) (core.Handler, error) {
	prog, err := core.LookupProgram(p.inner)
	if err != nil {
		return nil, err
	}
	h, err := prog.Open(env)
	if err != nil {
		return nil, err
	}
	return forward(&tracedHandler{inner: h, out: env.Param(traceParam, ""), path: env.Path}), nil
}

// callRecord is one handler call as written to the records file.
type callRecord struct {
	Op  uint8
	_   [3]byte
	N   uint32 // bytes requested
	Got uint32 // bytes moved
	_   [4]byte
	Off int64
	Dur int64 // nanoseconds
}

// tracedHandler times the wrapped handler's calls and writes them out, in
// one append, when the session closes.
type tracedHandler struct {
	inner     core.Handler
	out, path string

	mu    sync.Mutex
	calls []callRecord
}

func (t *tracedHandler) note(op opKind, off int64, n, got int, begin time.Time) {
	d := time.Since(begin)
	t.mu.Lock()
	t.calls = append(t.calls, callRecord{Op: uint8(op), N: uint32(n), Got: uint32(got), Off: off, Dur: int64(d)})
	t.mu.Unlock()
}

func (t *tracedHandler) ReadAt(p []byte, off int64) (int, error) {
	begin := time.Now()
	n, err := t.inner.ReadAt(p, off)
	t.note(opRead, off, len(p), n, begin)
	return n, err
}

func (t *tracedHandler) WriteAt(p []byte, off int64) (int, error) {
	begin := time.Now()
	n, err := t.inner.WriteAt(p, off)
	t.note(opWrite, off, len(p), n, begin)
	return n, err
}

func (t *tracedHandler) Size() (int64, error) {
	begin := time.Now()
	n, err := t.inner.Size()
	t.note(opSize, 0, 0, 0, begin)
	return n, err
}

func (t *tracedHandler) Truncate(n int64) error {
	begin := time.Now()
	err := t.inner.Truncate(n)
	t.note(opTruncate, n, 0, 0, begin)
	return err
}

func (t *tracedHandler) Sync() error {
	begin := time.Now()
	err := t.inner.Sync()
	t.note(opSync, 0, 0, 0, begin)
	return err
}

func (t *tracedHandler) Close() error {
	err := t.inner.Close()
	if t.out == "" {
		return err
	}
	t.mu.Lock()
	calls := t.calls
	t.mu.Unlock()
	if werr := appendRecord(t.out, t.path, calls); err == nil {
		err = werr
	}
	return err
}

// forward returns t with exactly the optional interfaces the wrapped handler
// implements, so the engine dispatches to the wrapper on the same path it
// would take for the wrapped handler.
func forward(t *tracedHandler) core.Handler {
	l, isL := t.inner.(core.Locker)
	c, isC := t.inner.(core.Controller)
	cc, isCC := t.inner.(core.ConcurrentHandler)
	type (
		locker     = core.Locker
		controller = core.Controller
		concurrent = core.ConcurrentHandler
	)
	switch {
	case isL && isC && isCC:
		return struct {
			*tracedHandler
			locker
			controller
			concurrent
		}{t, l, c, cc}
	case isL && isC:
		return struct {
			*tracedHandler
			locker
			controller
		}{t, l, c}
	case isL && isCC:
		return struct {
			*tracedHandler
			locker
			concurrent
		}{t, l, cc}
	case isC && isCC:
		return struct {
			*tracedHandler
			controller
			concurrent
		}{t, c, cc}
	case isL:
		return struct {
			*tracedHandler
			locker
		}{t, l}
	case isC:
		return struct {
			*tracedHandler
			controller
		}{t, c}
	case isCC:
		return struct {
			*tracedHandler
			concurrent
		}{t, cc}
	default:
		return t
	}
}

// appendRecord writes one session's calls to the records file in a single
// O_APPEND write: a header (path length, path, call count) then the calls.
func appendRecord(file, path string, calls []callRecord) error {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(len(path))) // writes to a bytes.Buffer cannot fail
	buf.WriteString(path)
	binary.Write(&buf, binary.LittleEndian, uint32(len(calls)))
	binary.Write(&buf, binary.LittleEndian, calls)
	f, err := os.OpenFile(file, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("trace records: %w", err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return fmt.Errorf("trace records: %w", err)
	}
	return f.Close()
}

// sessionRecord is one closed handler's calls, as read back.
type sessionRecord struct {
	path  string
	calls []callRecord
}

func readRecords(file string, size int64) ([]sessionRecord, error) {
	f, err := os.Open(file)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(io.LimitReader(f, size))
	var out []sessionRecord
	for {
		var plen uint32
		if err := binary.Read(r, binary.LittleEndian, &plen); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace records: %w", err)
		}
		path := make([]byte, plen)
		var n uint32
		if _, err := io.ReadFull(r, path); err != nil {
			return nil, fmt.Errorf("trace records: %w", err)
		}
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("trace records: %w", err)
		}
		calls := make([]callRecord, n)
		if err := binary.Read(r, binary.LittleEndian, calls); err != nil {
			return nil, fmt.Errorf("trace records: %w", err)
		}
		out = append(out, sessionRecord{path: string(path), calls: calls})
	}
}

// tracedStore is the file server's backend in the traced run: the in-memory
// store with its object calls timed.
type tracedStore struct {
	*backend.Mem
	tr *tracer
}

func (s tracedStore) Open(name string) (backend.Object, error) {
	o, err := s.Mem.Open(name)
	if err != nil {
		return nil, err
	}
	return tracedObject{Object: o, tr: s.tr}, nil
}

type tracedObject struct {
	backend.Object
	tr *tracer
}

func (o tracedObject) ReadAt(p []byte, off int64) (int, error) {
	begin := time.Now()
	n, err := o.Object.ReadAt(p, off)
	o.tr.add("backend.read", 0, begin, time.Now(), n)
	return n, err
}

func (o tracedObject) WriteAt(p []byte, off int64) (int, error) {
	begin := time.Now()
	n, err := o.Object.WriteAt(p, off)
	o.tr.add("backend.write", 0, begin, time.Now(), n)
	return n, err
}

// span is one traced interval. Spans recorded in a sentinel process are
// durations only (durOnly); their start is zero and end is the duration.
type span struct {
	id, parent, session uint64
	name                string
	start, end          int64 // ns since the tracer started
	bytes               int32
	durOnly             bool
}

func (s span) dur() int64 { return s.end - s.start }

// appSpan is one application call as a client recorded it; times are ns
// since the tracer started.
type appSpan struct {
	session    uint64
	off        int64
	start, end int64
	n          int32
	kind       opKind
}

// clientTrace is one client's span buffer; only that client appends to it.
type clientTrace struct {
	start time.Time // the tracer's start
	app   []appSpan
}

func (c *clientTrace) add(kind opKind, begin, end time.Time, off int64, n int, session uint64) {
	c.app = append(c.app, appSpan{session: session, off: off, start: int64(begin.Sub(c.start)),
		end: int64(end.Sub(c.start)), n: int32(n), kind: kind})
}

// sessionInfo is one traced session, in open order.
type sessionInfo struct {
	id          uint64
	path        string
	carrier     string
	open, close time.Time
}

// tracer owns a traced phase's spans and counters. Spans live in memory and
// are written once, when the run ends.
type tracer struct {
	records string // sentinel-side records file
	sealed  int64  // bytes of records written by measured sessions
	start   time.Time
	clients [clients]*clientTrace

	mu       sync.Mutex
	spans    []span // driver-side layer spans (vfs, core, remote, backend)
	sessions []sessionInfo
	nextID   uint64

	// Command-channel counters summed over traced procctl sessions.
	frames, flushes, recvFrames, recvWakeups, doorbells, suppressed uint64
	fdsPerSession                                                   []float64
}

func newTracer(records string) *tracer {
	t := &tracer{records: records, start: time.Now(), nextID: 1}
	for i := range t.clients {
		t.clients[i] = &clientTrace{start: t.start}
	}
	return t
}

// seal marks the end of the measured sessions: records appended later (the
// verification reopen) are not read back.
func (t *tracer) seal() error {
	st, err := os.Stat(t.records)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	t.sealed = st.Size()
	return nil
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.start)) }

func (t *tracer) idLocked() uint64 {
	id := t.nextID
	t.nextID++
	return id
}

// add records a driver-side span.
func (t *tracer) add(name string, parent uint64, begin, end time.Time, n int) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: t.idLocked(), parent: parent, name: name, start: t.ns(begin), end: t.ns(end), bytes: int32(n)})
	t.mu.Unlock()
}

// openSession registers a session opened at begin; its id parents the
// session's spans.
func (t *tracer) openSession(path string, begin time.Time) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.idLocked()
	t.sessions = append(t.sessions, sessionInfo{id: id, path: path, open: begin})
	return id
}

// closeSession notes a traced session's carrier and command-channel
// counters just before it closes.
func (t *tracer) closeSession(id uint64, h *core.Handle) {
	st := h.Stats()
	bs, hasBatch := h.BatchStats()
	ds, hasDP := h.DataPlaneStats()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.sessions {
		if t.sessions[i].id == id {
			t.sessions[i].carrier = st.Carrier
			t.sessions[i].close = time.Now()
		}
	}
	if hasBatch {
		t.frames += bs.Frames
		t.flushes += bs.Flushes
	}
	if hasDP {
		t.recvFrames += ds.RecvFrames
		t.recvWakeups += ds.RecvWakeups
		t.doorbells += ds.Doorbells
		t.suppressed += ds.Suppressed
		if ds.SegmentSessions > 0 {
			t.fdsPerSession = append(t.fdsPerSession, float64(ds.SegmentFDs)/float64(ds.SegmentSessions))
		}
	}
}

// assemble reads the sentinel-side records and builds the full span list:
// session spans, application call spans, ipc spans (procctl sessions only:
// the part of a call the program did not cover) and program spans.
func (t *tracer) assemble() ([]span, error) {
	recs, err := readRecords(t.records, t.sealed)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Parent sentinel records to sessions by sequence: sessions of one file
	// open and close one after another, so the k-th record of a path is the
	// k-th session opened on it.
	byPath := map[string][]sessionInfo{}
	for _, s := range t.sessions {
		byPath[s.path] = append(byPath[s.path], s)
	}
	recOf := map[uint64][]callRecord{}
	seen := map[string]int{}
	for _, r := range recs {
		k := seen[r.path]
		seen[r.path]++
		if k < len(byPath[r.path]) {
			recOf[byPath[r.path][k].id] = r.calls
		}
	}

	// Match handler calls to application calls by key (operation, offset,
	// length) in call order within each session: sort both sides by session
	// and key, keeping call order among equal keys, and walk them together.
	type appRef struct {
		client int
		i      int32
	}
	var refs []appRef
	for c, ct := range t.clients {
		for i := range ct.app {
			refs = append(refs, appRef{c, int32(i)})
		}
	}
	app := func(r appRef) *appSpan { return &t.clients[r.client].app[r.i] }
	sort.SliceStable(refs, func(x, y int) bool {
		a, b := app(refs[x]), app(refs[y])
		if a.session != b.session {
			return a.session < b.session
		}
		return cmpKey(a.kind, a.off, uint32(a.n), b.kind, b.off, uint32(b.n)) < 0
	})
	for _, calls := range recOf {
		sort.SliceStable(calls, func(x, y int) bool {
			a, b := calls[x], calls[y]
			return cmpKey(opKind(a.Op), a.Off, a.N, opKind(b.Op), b.Off, b.N) < 0
		})
	}

	ncalls := 0
	for _, calls := range recOf {
		ncalls += len(calls)
	}
	// Each application call is one span; each handler call one program span,
	// plus an ipc span when it matched a call of a procctl session.
	out := make([]span, 0, len(t.spans)+len(t.sessions)+len(refs)+2*ncalls)
	out = append(out, t.spans...)
	carrier := map[uint64]bool{}
	for _, s := range t.sessions {
		carrier[s.id] = s.carrier != ""
		out = append(out, span{id: s.id, name: "core.session", session: s.id, start: t.ns(s.open), end: t.ns(s.close)})
	}
	used := map[uint64]int{} // per session: handler calls consumed so far
	for _, r := range refs {
		a := app(r)
		name := "core.read"
		if a.kind == opWrite {
			name = "core.write"
		}
		call := span{id: t.idLocked(), parent: a.session, session: a.session, name: name,
			start: a.start, end: a.end, bytes: a.n}
		out = append(out, call)
		calls, k := recOf[a.session], used[a.session]
		for k < len(calls) && cmpKey(opKind(calls[k].Op), calls[k].Off, calls[k].N, a.kind, a.off, uint32(a.n)) < 0 {
			k++ // a handler call no application call asked for; placed below
		}
		if k == len(calls) || cmpKey(opKind(calls[k].Op), calls[k].Off, calls[k].N, a.kind, a.off, uint32(a.n)) != 0 {
			continue // served without a handler call (read-ahead window)
		}
		parent := call.id
		if carrier[a.session] {
			ipc := span{id: t.idLocked(), parent: call.id, session: a.session, name: "ipc", start: call.start, end: call.end}
			out = append(out, ipc)
			parent = ipc.id
		}
		out = append(out, programSpan(t.idLocked(), parent, a.session, calls[k]))
		calls[k].Op = 0 // matched
		used[a.session] = k + 1
	}
	// Handler calls no application call matched (read-ahead fills, syncs)
	// hang off their session.
	for id, calls := range recOf {
		for _, c := range calls {
			if c.Op != 0 {
				out = append(out, programSpan(t.idLocked(), id, id, c))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out, nil
}

// cmpKey orders handler and application calls by operation, offset and
// length.
func cmpKey(ak opKind, aoff int64, an uint32, bk opKind, boff int64, bn uint32) int {
	switch {
	case ak != bk:
		return int(ak) - int(bk)
	case aoff != boff:
		if aoff < boff {
			return -1
		}
		return 1
	case an != bn:
		if an < bn {
			return -1
		}
		return 1
	}
	return 0
}

var programSpanNames = [...]string{opRead: "program.read", opWrite: "program.write", opSize: "program.size",
	opTruncate: "program.truncate", opSync: "program.sync"}

func programSpan(id, parent, session uint64, c callRecord) span {
	return span{id: id, parent: parent, session: session, name: programSpanNames[c.Op], end: c.Dur, bytes: int32(c.Got), durOnly: true}
}

// selfTimes returns each span's self time: its duration minus the part of
// it its children cover. A duration-only child covers its duration. spans
// must be sorted by id with ids 1..len(spans), as assemble returns them.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int32 // positions of child spans, grouped by parent then start
	for i, s := range spans {
		self[i] = s.dur()
		if s.parent != 0 {
			kids = append(kids, int32(i))
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := spans[kids[a]], spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		parent := spans[p-1]
		covered := int64(0)
		lo, hi := int64(0), int64(-1) // the covered run being merged
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			c := spans[kids[i]]
			if c.durOnly {
				covered += c.dur()
				continue
			}
			s, e := max(c.start, parent.start), min(c.end, parent.end)
			if e <= s {
				continue
			}
			if s > hi {
				covered += max(hi-lo, 0)
				lo, hi = s, e
			} else {
				hi = max(hi, e)
			}
		}
		covered += max(hi-lo, 0)
		self[p-1] = max(parent.dur()-covered, 0)
	}
	return self
}

// writeSpans writes the span list as CSV: id,parent,session,name,start_ns,end_ns,bytes,dur_only.
func writeSpans(file string, spans []span) error {
	f, err := os.Create(file)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,session,name,start_ns,end_ns,bytes,dur_only")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d,%t\n", s.id, s.parent, s.session, s.name, s.start, s.end, s.bytes, s.durOnly)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
