package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/faultinject"
	"repro/internal/remote"
	"repro/internal/wire"
)

func TestStartServicesAllAndReachable(t *testing.T) {
	svc, err := startServices(config{
		fileAddr:  "127.0.0.1:0",
		quoteAddr: "127.0.0.1:0",
		mailAddr:  "127.0.0.1:0",
		seed:      true,
	})
	if err != nil {
		t.Fatalf("startServices: %v", err)
	}
	defer svc.Close()

	// Seeded file object.
	fc, err := remote.Dial(svc.FileAddr, "hello")
	if err != nil {
		t.Fatalf("dial file service: %v", err)
	}
	defer fc.Close()
	size, err := fc.Size()
	if err != nil || size == 0 {
		t.Errorf("seeded object size = (%d, %v)", size, err)
	}

	// Seeded quotes.
	quotes, err := remote.FetchQuotes(svc.QuoteAddr)
	if err != nil || len(quotes) != 3 {
		t.Errorf("FetchQuotes = (%v, %v)", quotes, err)
	}

	// Seeded mail.
	msgs, err := remote.FetchMail(svc.MailAddr, "demo", false)
	if err != nil || len(msgs) != 1 {
		t.Errorf("FetchMail = (%d msgs, %v)", len(msgs), err)
	}
}

func TestStartServicesSelective(t *testing.T) {
	svc, err := startServices(config{quoteAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.FileAddr != "" || svc.MailAddr != "" {
		t.Errorf("unexpected services: %+v", svc)
	}
	if svc.QuoteAddr == "" {
		t.Error("quote service missing")
	}
	// Unseeded: empty listing.
	quotes, err := remote.FetchQuotes(svc.QuoteAddr)
	if err != nil || len(quotes) != 0 {
		t.Errorf("unseeded FetchQuotes = (%v, %v)", quotes, err)
	}
}

func TestStartServicesBindFailure(t *testing.T) {
	// Take a port, then ask afd to bind the same one.
	first, err := startServices(config{fileAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := startServices(config{fileAddr: first.FileAddr}); err == nil {
		t.Error("second bind of the same port succeeded")
	}
}

func TestRunPrintsAddressesAndStops(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mail", "", "-quotes", ""}, &out, func() {} /* return immediately */)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "file service:") || !strings.Contains(text, "serving") {
		t.Errorf("output = %q", text)
	}
	if strings.Contains(text, "mail service:") {
		t.Errorf("disabled service printed: %q", text)
	}
}

func TestRunFlagError(t *testing.T) {
	if err := run([]string{"-bogus"}, &bytes.Buffer{}, func() {}); err == nil {
		t.Error("run with unknown flag succeeded")
	}
}

// TestCloseReportsJoinedErrors pins the lifecycle bugfix: a failed service
// teardown is reported — all of them, joined — instead of silently
// discarded.
func TestCloseReportsJoinedErrors(t *testing.T) {
	e1, e2 := errors.New("stop one"), errors.New("stop two")
	svc := &services{stops: []func() error{
		func() error { return e1 },
		func() error { return nil },
		func() error { return e2 },
	}}
	err := svc.Close()
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("Close() = %v, want both stop errors joined", err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("second Close() = %v, want idempotent nil", err)
	}
}

func TestStatsEndpointExported(t *testing.T) {
	svc, err := startServices(config{
		fileAddr:    "127.0.0.1:0",
		statsAddr:   "127.0.0.1:0",
		seed:        true,
		maxSessions: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Generate a little accounted activity.
	c, err := remote.Dial(svc.FileAddr, "hello")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// The server settles an operation's accounting just after its reply
	// ships, so the client can see the bytes before the stats do: poll
	// until the read is no longer in flight, then check what it recorded.
	fetch := func() daemon.Stats {
		t.Helper()
		resp, err := http.Get("http://" + svc.StatsAddr + "/stats")
		if err != nil {
			t.Fatalf("stats endpoint: %v", err)
		}
		defer resp.Body.Close()
		var st daemon.Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("stats JSON: %v", err)
		}
		return st
	}
	st := fetch()
	for deadline := time.Now().Add(5 * time.Second); st.InFlight != 0; st = fetch() {
		if time.Now().After(deadline) {
			t.Fatalf("read still in flight after 5s: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if len(st.Tenants) == 0 || st.Tenants[0].Name != daemon.DefaultTenant {
		t.Fatalf("tenants = %+v", st.Tenants)
	}
	if st.Tenants[0].BytesRead == 0 {
		t.Errorf("no bytes accounted: %+v", st.Tenants[0])
	}
	if len(st.Ops) == 0 {
		t.Error("no per-op latency recorded")
	}
}

// syncWriter lets the test read run's output while run is still writing it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// warmSignalLoop forces the runtime's process-wide signal goroutine to start
// before a LeakCheck snapshot: os/signal.loop spawns on the first Notify ever
// and lives for the rest of the process, so letting a leak-checked test be
// that first Notify misreads it as a leak.
func warmSignalLoop() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	signal.Stop(ch)
}

// fieldAfter extracts the trimmed remainder of the line starting with
// prefix.
func fieldAfter(out, prefix string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// TestSigtermDrainsLoadedDaemon is the acceptance scenario for the signal
// bugfix: SIGTERM (what service managers send, previously ignored) lands on
// a daemon with reads in flight, and the daemon exits cleanly — in-flight
// work drained, no torn frames, no leaked goroutines.
func TestSigtermDrainsLoadedDaemon(t *testing.T) {
	warmSignalLoop()
	faultinject.LeakCheck(t)
	wait, stop := newSignalWaiter(io.Discard, func(code int) {
		t.Errorf("immediate-exit escape hatch fired (code %d) on a single signal", code)
	})
	defer stop()

	out := &syncWriter{}
	runErr := make(chan error, 1)
	go func() {
		runErr <- run([]string{"-quotes", "", "-mail", "", "-stats", ""}, out, wait)
	}()

	var addr string
	for deadline := time.Now().Add(5 * time.Second); addr == ""; {
		addr = fieldAfter(out.String(), "file service:")
		if time.Now().After(deadline) {
			t.Fatal("file service address never printed")
		}
		time.Sleep(time.Millisecond)
	}

	// Load: a client hammering reads until shutdown cuts it off.
	c, err := remote.DialWith(addr, "hello", remote.DialOptions{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loadErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		for {
			if _, rerr := c.ReadAt(buf, 0); rerr != nil {
				loadErr <- rerr
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the load establish

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	// The load was cut off with a typed shutdown status or a clean
	// connection close — never a torn frame.
	select {
	case lerr := <-loadErr:
		if errors.Is(lerr, io.ErrUnexpectedEOF) {
			t.Errorf("client saw a torn frame during drain: %v", lerr)
		}
		if errors.Is(lerr, wire.ErrShuttingDown) {
			t.Logf("client rejected with typed shutdown: %v", lerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("load goroutine still running after daemon exit")
	}
}

// TestSecondSignalEscapeHatch: during a drain, one more signal must exit
// immediately instead of waiting the drain out.
func TestSecondSignalEscapeHatch(t *testing.T) {
	warmSignalLoop()
	faultinject.LeakCheck(t)
	exited := make(chan int, 1)
	wait, stop := newSignalWaiter(io.Discard, func(code int) { exited <- code })
	defer stop()

	waited := make(chan struct{})
	go func() { wait(); close(waited) }()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("first SIGTERM did not unblock the waiter")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 1 {
			t.Errorf("escape hatch exit code = %d, want 1", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGTERM did not trigger immediate exit")
	}
}
