package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/activefile/sentinel"
)

func TestMain(m *testing.M) {
	registerTracedPrograms()
	sentinel.MaybeChild() // procctl sentinels re-execute the test binary
	os.Exit(m.Run())
}

// runFor runs one workload briefly and returns its result and printed report.
func runFor(t *testing.T, workload string, seed uint64, trace bool) (*result, string) {
	t.Helper()
	window := 2 * time.Second
	if testing.Short() {
		window = time.Second
	}
	if trace {
		window *= 2 // two phases
	}
	cfg := config{workload: workload, seed: seed, window: window, trace: trace, dir: t.TempDir(), setups: 1}
	res, err := runBench(cfg)
	if err != nil {
		t.Fatalf("%s seed %d trace %t: %v", workload, seed, trace, err)
	}
	var out bytes.Buffer
	report(&out, cfg, res)
	if !res.correct || res.failed != 0 {
		t.Fatalf("%s: correct=%t failed=%d: %v\n%s", workload, res.correct, res.failed, res.firstErr, out.String())
	}
	return res, out.String()
}

var metricLine = regexp.MustCompile(`(?m)^metric (\S+)\s+(\S+)\s+(\S+)\s+samples=(\d+)`)

// printed parses the report's metric lines into name -> unit.
func printed(t *testing.T, out string) map[string]string {
	t.Helper()
	units := map[string]string{}
	for _, m := range metricLine.FindAllStringSubmatch(out, -1) {
		units[m[1]] = m[3]
	}
	return units
}

// lastLine decodes the result object the report ends with.
func lastLine(t *testing.T, out string) map[string]struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
} {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v", res)
	}
	return res.Metrics
}

func checkMetricSet(t *testing.T, out string, defs []metricDef) {
	t.Helper()
	units := printed(t, out)
	values := lastLine(t, out)
	if len(values) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(values), len(defs))
	}
	for _, d := range defs {
		if units[d.name] != d.unit {
			t.Errorf("metric %s printed with unit %q, want %q", d.name, units[d.name], d.unit)
		}
		if v, ok := values[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("result object lacks %s in %s", d.name, d.unit)
		}
	}
}

// layers each workload's traced run must show spans for, and must not.
var wantLayers = map[string]struct{ have, not []string }{
	"rpc-random":  {have: []string{"vfs", "core", "ipc", "program"}, not: []string{"backend", "remote"}},
	"cached-zipf": {have: []string{"vfs", "core", "program", "backend", "remote"}, not: []string{"ipc"}},
	"open-stream": {have: []string{"vfs", "core", "ipc", "program"}, not: []string{"backend", "remote"}},
}

func TestWorkloads(t *testing.T) {
	callsPerRead := map[string]float64{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			_, out := runFor(t, w.name, 1, false)
			checkMetricSet(t, out, endToEnd)
			for _, d := range endToEnd {
				if v := lastLine(t, out)[d.name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}

			res, out := runFor(t, w.name, 1, true)
			checkMetricSet(t, out, perLayer)
			vals := lastLine(t, out)
			if v := vals["error_rate"].Value; v != 0 {
				t.Errorf("error_rate = %v", v)
			}
			if v := vals["core.carrier_fallbacks"].Value; v != 0 {
				t.Errorf("carrier fallbacks = %v", v)
			}
			layers := map[string]bool{}
			for _, l := range layersOf(res.spanCount) {
				layers[l] = true
			}
			for _, l := range wantLayers[w.name].have {
				if !layers[l] {
					t.Errorf("no %s spans (have %v)", l, res.spanCount)
				}
			}
			for _, l := range wantLayers[w.name].not {
				if layers[l] {
					t.Errorf("unexpected %s spans (have %v)", l, res.spanCount)
				}
			}
			callsPerRead[w.name] = vals["core.handler_calls_per_read"].Value
			if w.name == "cached-zipf" {
				if h := vals["cache.hit_ratio"].Value; h <= 0 || h >= 1 {
					t.Errorf("cache.hit_ratio = %v, want strictly between 0 and 1", h)
				}
			}

			// Another seed: another op stream, the same metric set.
			res2, out2 := runFor(t, w.name, 2, true)
			checkMetricSet(t, out2, perLayer)
			if sameStream(res.stream, res2.stream) {
				t.Errorf("seeds 1 and 2 generated the same op stream")
			}
		})
	}
	// Read-ahead engages on the streaming workload only.
	if rr, st := callsPerRead["rpc-random"], callsPerRead["open-stream"]; rr != 0 && st >= 0.5*rr {
		t.Errorf("handler calls per read: open-stream %v vs rpc-random %v, want read-ahead to cut it", st, rr)
	}
}

func sameStream(a, b []string) bool {
	return len(a) > 0 && fmt.Sprint(a) == fmt.Sprint(b)
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for i := 0; i < 990; i++ {
		h.add(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.add(10 * time.Millisecond)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := h.quantile(q, time.Microsecond); got < 99.5 || got > 100.5 {
			t.Errorf("q%.2f = %vus, want 100us within 0.5%%", q, got)
		}
	}
	if got := h.quantile(0.999, time.Microsecond); got < 9950 || got > 10050 {
		t.Errorf("q0.999 = %vus, want 10000us within 0.5%%", got)
	}
	if b := h.beyondP99(); b != 10 {
		t.Errorf("beyond p99 = %d, want 10", b)
	}
	if m := h.mean(time.Microsecond); m != 199 {
		t.Errorf("mean = %vus, want 199us exactly", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "core.read", start: 0, end: 100},
		{id: 2, parent: 1, name: "ipc", start: 10, end: 90},
		{id: 3, parent: 2, name: "program.read", end: 30, durOnly: true},
	}
	if self := selfTimes(spans); self[0] != 20 || self[1] != 50 || self[2] != 30 {
		t.Errorf("self times %v, want [20 50 30]", self)
	}
}
