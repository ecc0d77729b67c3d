package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/activefile"
	"repro/internal/core"
	"repro/internal/vfs"
)

// session is what a workload drives: the regular-file calls a legacy
// application makes, plus Control for the cached program's statistics. Both
// the public *activefile.Handle (untraced run) and *core.Handle (traced run,
// which also exposes the command-channel counters) satisfy it.
type session interface {
	io.Reader
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
	Control(req []byte) ([]byte, error)
}

// rig is one phase's environment: where files go, the seed, the tracer
// (nil when untraced) and the carrier ledger every session reports into.
type rig struct {
	dir  string
	seed uint64
	tr   *tracer

	mu        sync.Mutex
	host      *hostInfo
	fallbacks []string
}

// rng returns the generator for one purpose and client; the same seed
// always yields the same stream.
func (g *rig) rng(purpose, client uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, purpose<<32|client))
}

// fill overwrites b with generator output.
func fill(r *rand.Rand, b []byte) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	for ; i < len(b); i++ {
		b[i] = byte(r.Uint32())
	}
}

// clientTrace is client i's span buffer, nil when untraced.
func (g *rig) clientTrace(i int) *clientTrace {
	if g.tr == nil {
		return nil
	}
	return g.tr.clients[i]
}

// seal ends the traced records of the measured sessions; a no-op untraced.
func (g *rig) seal() error {
	if g.tr == nil {
		return nil
	}
	return g.tr.seal()
}

// program names the program a manifest should run: the built-in one, or its
// timing wrapper in the traced run.
func (g *rig) program(name string) string {
	if g.tr != nil {
		return tracedName(name)
	}
	return name
}

// params adds the trace records parameter in the traced run.
func (g *rig) params(p map[string]string) map[string]string {
	if g.tr != nil {
		p[traceParam] = g.tr.records
	}
	return p
}

// create writes an active file and, when content is non-nil, its data part.
func (g *rig) create(path string, def activefile.Definition, content []byte) error {
	if err := activefile.Create(path, def); err != nil {
		return err
	}
	if content != nil {
		if err := os.WriteFile(activefile.DataPath(path), content, 0o644); err != nil {
			return fmt.Errorf("write data part: %w", err)
		}
	}
	if g.tr != nil {
		// Manifest load cost, timed from outside vfs.
		for range 50 {
			begin := time.Now()
			if _, err := vfs.Load(path); err != nil {
				return err
			}
			g.tr.add("vfs.load", 0, begin, time.Now(), 0)
		}
	}
	return nil
}

// open opens an active file the way the phase measures it: through the
// public API untraced, through core.Open (timed) traced. It returns the
// session id spans are parented to (0 untraced).
func (g *rig) open(path string) (session, uint64, error) {
	if g.tr == nil {
		h, err := activefile.OpenActive(path)
		if err != nil {
			return nil, 0, err
		}
		return h, 0, nil
	}
	begin := time.Now()
	h, err := core.Open(path, core.Options{})
	end := time.Now()
	if err != nil {
		return nil, 0, err
	}
	id := g.tr.openSession(path, begin)
	g.tr.add("core.open", id, begin, end, 0)
	return h, id, nil
}

// closeSession records the carrier the session actually ran on, refuses a
// silent shm→pipe demotion, and closes it.
func (g *rig) closeSession(s session, id uint64) error {
	var carrier, fallback string
	switch h := s.(type) {
	case *activefile.Handle:
		st := h.Stats()
		carrier, fallback = st.Carrier, st.CarrierFallback
	case *core.Handle:
		st := h.Stats()
		carrier, fallback = st.Carrier, st.CarrierFallback
		g.tr.closeSession(id, h)
	}
	if carrier == "" {
		carrier = "none"
	}
	g.mu.Lock()
	g.host.Carriers[carrier]++
	if fallback != "" {
		g.fallbacks = append(g.fallbacks, fallback)
	}
	g.mu.Unlock()
	var begin time.Time
	if g.tr != nil {
		begin = time.Now()
	}
	err := s.Close()
	if g.tr != nil {
		g.tr.add("core.close", id, begin, time.Now(), 0)
	}
	if err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	if fallback != "" {
		return fmt.Errorf("carrier fallback: %s", fallback)
	}
	return nil
}

// compareStream reads r to EOF in chunks and returns how many leading bytes
// match want; a stream longer than want counts as a difference at its end.
func compareStream(r io.Reader, want []byte) (int, error) {
	buf := make([]byte, 256<<10)
	pos := 0
	for {
		n, err := io.ReadFull(r, buf)
		if pos+n > len(want) || !bytes.Equal(buf[:n], want[pos:pos+n]) {
			return pos, nil
		}
		pos += n
		switch {
		case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
			return pos, nil
		case err != nil:
			return pos, err
		}
	}
}

// verify reopens an active file after its sessions closed and checks that
// its whole content matches the shadow copy, so the Sync/close flush is
// checked too. It opens through core.Open to learn the command channel's
// submission backend for the host fingerprint.
func (g *rig) verify(path string, shadow []byte) error {
	h, err := core.Open(path, core.Options{})
	if err != nil {
		return fmt.Errorf("verify %s: %w", path, err)
	}
	if bs, ok := h.BatchStats(); ok {
		g.mu.Lock()
		g.host.Submitter = bs.Backend
		g.mu.Unlock()
	}
	n, rerr := compareStream(h, shadow)
	cerr := h.Close()
	switch {
	case rerr != nil:
		return fmt.Errorf("verify %s: %w", path, rerr)
	case cerr != nil:
		return fmt.Errorf("verify %s: close: %w", path, cerr)
	case n != len(shadow):
		return fmt.Errorf("verify %s: final content differs from the shadow copy (first difference at byte %d of %d)", path, n, len(shadow))
	}
	return nil
}
