package core

import (
	"errors"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/shm"
	"repro/internal/vfs"
)

// Tests for the syscall-economy observability surface (PR 7): carrier and
// fallback reporting through Handle.Stats, the data-plane wakeup counters,
// warm-adoption epoch advancement, and torn adoption on a shared segment.

func openTestHandle(t *testing.T, params map[string]string) *Handle {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
		Params:  params,
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	h, err := Open(path, Options{Strategy: StrategyProcCtl})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// TestCarrierReportedInStats: Handle.Stats names the conduit the session
// actually got, with no fallback reason when the request was honored.
func TestCarrierReportedInStats(t *testing.T) {
	h := openTestHandle(t, nil)
	if s := h.Stats(); s.Carrier != "pipe" || s.CarrierFallback != "" {
		t.Fatalf("default carrier stats = %q/%q, want pipe with no fallback", s.Carrier, s.CarrierFallback)
	}

	if shm.Supported() {
		hs := openTestHandle(t, map[string]string{"transport": "shm"})
		if s := hs.Stats(); s.Carrier != "shm" || s.CarrierFallback != "" {
			t.Fatalf("shm carrier stats = %q/%q, want shm with no fallback", s.Carrier, s.CarrierFallback)
		}
	}
}

// TestCarrierFallbackReasonPlumbed: the demotion reason recorded at spawn
// must surface verbatim through carrierInfo — the seam Handle.Stats reads.
// (Provoking a real allocation failure is not portable, so the plumbing is
// pinned directly; newSessionSegment's reason strings are covered on
// platforms where shm compiles out.)
func TestCarrierFallbackReasonPlumbed(t *testing.T) {
	tr := &procCtlTransport{fallback: "segment allocation failed: injected"}
	carrier, reason := tr.carrierInfo()
	if carrier != "pipe" || reason != "segment allocation failed: injected" {
		t.Fatalf("carrierInfo = %q/%q", carrier, reason)
	}

	// A session that did get its segment reports shm with no reason.
	seg, err := shm.New(0, 0)
	if err != nil {
		t.Skipf("shm.New: %v", err)
	}
	defer seg.Close()
	trShm := &procCtlTransport{seg: seg}
	if carrier, reason := trShm.carrierInfo(); carrier != "shm" || reason != "" {
		t.Fatalf("shm carrierInfo = %q/%q, want shm with no fallback", carrier, reason)
	}
}

// TestNoFallbackReasonForHonoredRequests: newSessionSegment leaves the
// reason empty when pipes were chosen, not imposed.
func TestNoFallbackReasonForHonoredRequests(t *testing.T) {
	for _, params := range []map[string]string{nil, {"transport": "pipe"}} {
		seg, reason, err := newSessionSegment(vfs.Manifest{Params: params}, StrategyProcCtl)
		if err != nil || seg != nil || reason != "" {
			t.Fatalf("pipe-by-choice: seg=%v reason=%q err=%v", seg, reason, err)
		}
	}
	// Non-procctl strategies have no control channel to demote.
	seg, reason, err := newSessionSegment(
		vfs.Manifest{Params: map[string]string{"transport": "shm"}}, StrategyProcess)
	if err != nil || seg != nil || reason != "" {
		t.Fatalf("process strategy: seg=%v reason=%q err=%v", seg, reason, err)
	}
}

// TestDataPlaneStatsPipe: over pipes, pipelined reads must show the drain
// discipline — frames decoded, wakeups counted, and no ring doorbells.
func TestDataPlaneStatsPipe(t *testing.T) {
	h := openTestHandle(t, map[string]string{"readahead": "false"})
	if _, err := h.WriteAt(make([]byte, 8192), 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				if _, err := h.ReadAt(buf, int64((w*50+i)*64)%8192); err != nil {
					t.Errorf("ReadAt: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	ds, ok := h.DataPlaneStats()
	if !ok {
		t.Fatal("procctl handle has no data-plane stats")
	}
	if ds.Carrier != "pipe" || ds.Doorbells != 0 || ds.Suppressed != 0 {
		t.Fatalf("pipe session rang ring doorbells: %+v", ds)
	}
	if ds.RecvFrames == 0 || ds.RecvWakeups == 0 {
		t.Fatalf("pipe receive path counted nothing: %+v", ds)
	}
	if ds.RecvFrames < ds.RecvWakeups {
		t.Fatalf("more wakeups than frames (%d > %d) — drain buffer not draining", ds.RecvWakeups, ds.RecvFrames)
	}
}

// TestDataPlaneStatsShm: over rings, the receive path is syscall-free
// (RecvWakeups stays zero) and the doorbell ledger moves.
func TestDataPlaneStatsShm(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	h := openTestHandle(t, map[string]string{"transport": "shm", "readahead": "false"})
	if _, err := h.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	buf := make([]byte, 64)
	for i := 0; i < 100; i++ {
		if _, err := h.ReadAt(buf, int64(i*37)%4000); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}

	ds, ok := h.DataPlaneStats()
	if !ok {
		t.Fatal("procctl handle has no data-plane stats")
	}
	if ds.Carrier != "shm" {
		t.Fatalf("carrier = %q, want shm", ds.Carrier)
	}
	if ds.RecvWakeups != 0 {
		t.Fatalf("shm receive path issued %d read syscalls, want 0", ds.RecvWakeups)
	}
	if ds.RecvFrames == 0 {
		t.Fatal("no response frames counted")
	}
	if ds.Doorbells+ds.Suppressed == 0 {
		t.Fatal("ring wakeup ledger never moved")
	}
}

// TestWarmAdoptionAdvancesEpoch: adopting a pooled shm sentinel must bump
// the segment's control-region epoch, marking the new binding generation.
func TestWarmAdoptionAdvancesEpoch(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	t.Cleanup(DrainSentinelPool)
	params := map[string]string{"transport": "shm", "pool": "1"}

	tr := newTestProcCtl(t, params)
	if tr.seg.Epoch() != 0 {
		t.Fatalf("cold spawn epoch = %d, want 0", tr.seg.Epoch())
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	path := tr.poolPath
	deadline := time.Now().Add(10 * time.Second)
	for IdleSentinels(path) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pool never replenished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	m, err := vfs.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := newProcCtlTransport(path, m)
	if err != nil {
		t.Fatalf("warm open: %v", err)
	}
	defer tr2.close()
	if tr2.seg == nil {
		t.Fatal("warm adoption lost the segment")
	}
	if e := tr2.seg.Epoch(); e < 1 {
		t.Fatalf("adopted segment epoch = %d, want >= 1", e)
	}
}

// TestTornAdoptionClosesSharedSegment is the torn-rebind drill: the warm
// sentinel is frozen, adoption starts, and the child is killed with the
// OpOpen handshake in flight on the shared segment. The open must recover
// by cold-spawning, and the torn segment must come out fully closed — every
// ring rejecting traffic, mapping released — with no goroutine leaked.
func TestTornAdoptionClosesSharedSegment(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
	faultinject.LeakCheck(t)
	t.Cleanup(DrainSentinelPool)

	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
		Params:  map[string]string{"transport": "shm", "pool": "1"},
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	if _, err := PrewarmSentinels(path); err != nil {
		t.Fatalf("PrewarmSentinels: %v", err)
	}
	procPool.mu.Lock()
	warm := procPool.idle[path][0]
	procPool.mu.Unlock()
	if warm.seg == nil {
		t.Fatal("pooled shm sentinel has no segment")
	}

	// Freeze the child so the rebind handshake is genuinely in flight when
	// death lands, then open: adoption sends OpOpen into a stopped process.
	if err := syscall.Kill(warm.cmd.Process.Pid, syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP: %v", err)
	}
	opened := make(chan error, 1)
	var h *Handle
	go func() {
		var err error
		h, err = Open(path, Options{Strategy: StrategyProcCtl})
		opened <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the rebind reach the rings
	if err := syscall.Kill(warm.cmd.Process.Pid, syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}

	select {
	case err := <-opened:
		if err != nil {
			t.Fatalf("Open after torn adoption: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("open wedged on the torn rebind")
	}
	defer h.Close()

	// The torn segment must be closed outright: control region's owner gone,
	// every ring in the directory rejecting I/O instead of parking forever.
	deadline := time.Now().Add(5 * time.Second)
	for !warm.seg.Closed() {
		if time.Now().After(deadline) {
			t.Fatal("torn segment never closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, r := range warm.seg.Rings() {
		if _, err := r.Write([]byte{0}); !errors.Is(err, shm.ErrClosed) {
			t.Fatalf("ring %d after torn adoption: Write err = %v, want ErrClosed", i, err)
		}
	}
	// Stats must survive the unmap (the detached snapshot), not fault.
	_ = warm.seg.Cmd().Stats()

	// And the recovered session serves traffic.
	if _, err := h.WriteAt([]byte("recovered"), 0); err != nil {
		t.Fatalf("WriteAt on recovered session: %v", err)
	}
}
