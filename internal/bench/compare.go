package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Report comparison: load two afbench JSON reports (any schema version) and
// render the per-cell deltas as a table, so a PR's perf claim is a
// `make bench-compare` away instead of a manual diff of two JSON files.

// LoadReport reads an afbench JSON report from path. The current v8 schema
// and the older v1–v7 layouts are all accepted; sections an older report
// lacks stay empty.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse report %s: %w", path, err)
	}
	switch rep.Schema {
	case "afbench/v1", "afbench/v2", "afbench/v3", "afbench/v4", "afbench/v5",
		"afbench/v6", "afbench/v7", "afbench/v8":
		return &rep, nil
	default:
		return nil, fmt.Errorf("report %s: unknown schema %q", path, rep.Schema)
	}
}

// deltaPct returns the relative change from old to new in percent; negative
// is an improvement for latency-style metrics.
func deltaPct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / before * 100
}

// WriteCompareTable renders every cell present in BOTH reports with its
// old/new value and percentage delta. Cells only one report has are counted
// and summarized, never silently dropped.
func WriteCompareTable(w io.Writer, oldRep, newRep *Report) error {
	var unmatched int

	// Figure 6 panels: index old cells by (path, op, strategy, block).
	oldCells := map[string]float64{}
	for _, p := range oldRep.Panels {
		for _, c := range p.Cells {
			oldCells[fmt.Sprintf("%s/%s/%s/%d", p.Path, p.Op, c.Strategy, c.Block)] = c.MicrosPerOp
		}
	}
	if _, err := fmt.Fprintf(w, "figure 6 panels (µs/op)\n%-34s%10s%10s%9s\n", "cell", "old", "new", "delta"); err != nil {
		return err
	}
	matched := map[string]bool{}
	for _, p := range newRep.Panels {
		for _, c := range p.Cells {
			key := fmt.Sprintf("%s/%s/%s/%d", p.Path, p.Op, c.Strategy, c.Block)
			old, ok := oldCells[key]
			if !ok {
				unmatched++
				continue
			}
			matched[key] = true
			if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
				key, old, c.MicrosPerOp, deltaPct(old, c.MicrosPerOp)); err != nil {
				return err
			}
		}
	}
	for key := range oldCells {
		if !matched[key] {
			unmatched++
		}
	}

	// Parallel sweeps, when both reports carry them (v1 has none).
	if len(oldRep.Parallel) > 0 && len(newRep.Parallel) > 0 {
		oldPar := map[string]ParallelReportCell{}
		for _, p := range oldRep.Parallel {
			for _, c := range p.Cells {
				oldPar[fmt.Sprintf("%s/%s/%d/%s/x%d", p.Path, p.Op, p.Block, c.Strategy, c.Degree)] = c
			}
		}
		if _, err := fmt.Fprintf(w, "\nparallel sweeps (aggregate µs/op)\n%-34s%10s%10s%9s\n", "cell", "old", "new", "delta"); err != nil {
			return err
		}
		for _, p := range newRep.Parallel {
			for _, c := range p.Cells {
				key := fmt.Sprintf("%s/%s/%d/%s/x%d", p.Path, p.Op, p.Block, c.Strategy, c.Degree)
				old, ok := oldPar[key]
				if !ok {
					unmatched++
					continue
				}
				if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
					key, old.MicrosPerOp, c.MicrosPerOp, deltaPct(old.MicrosPerOp, c.MicrosPerOp)); err != nil {
					return err
				}
			}
		}
	}

	// Churn, same deal.
	if len(oldRep.Churn) > 0 && len(newRep.Churn) > 0 {
		oldChurn := map[string]float64{}
		for _, row := range oldRep.Churn {
			oldChurn[row.Strategy] = row.MicrosPerOpen
		}
		if _, err := fmt.Fprintf(w, "\nopen/close churn (µs/open)\n%-34s%10s%10s%9s\n", "cell", "old", "new", "delta"); err != nil {
			return err
		}
		for _, row := range newRep.Churn {
			old, ok := oldChurn[row.Strategy]
			if !ok {
				unmatched++
				continue
			}
			if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
				row.Strategy, old, row.MicrosPerOpen, deltaPct(old, row.MicrosPerOpen)); err != nil {
				return err
			}
		}
	}

	// Transport carrier sweep, when both reports carry it (pre-v3 have none).
	if len(oldRep.Transport) > 0 && len(newRep.Transport) > 0 {
		oldTr := map[string]TransportReportRow{}
		for _, row := range oldRep.Transport {
			oldTr[fmt.Sprintf("%s/%d", row.Path, row.Block)] = row
		}
		if _, err := fmt.Fprintf(w, "\ntransport sweep (µs/op, sequential procctl reads)\n%-34s%10s%10s%9s\n", "cell", "old", "new", "delta"); err != nil {
			return err
		}
		for _, row := range newRep.Transport {
			old, ok := oldTr[fmt.Sprintf("%s/%d", row.Path, row.Block)]
			if !ok {
				unmatched++
				continue
			}
			for _, col := range []struct {
				carrier  string
				old, new float64
			}{
				{"pipe", old.PipeMicros, row.PipeMicros},
				{"shm", old.ShmMicros, row.ShmMicros},
			} {
				if col.old == 0 || col.new == 0 {
					continue // carrier absent in one report (platform fallback)
				}
				key := fmt.Sprintf("%s/%d/%s", row.Path, row.Block, col.carrier)
				if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
					key, col.old, col.new, deltaPct(col.old, col.new)); err != nil {
					return err
				}
			}
		}
	}

	// Syscall-economy cells, when both reports carry them (pre-v5 have none).
	if len(oldRep.TransportEconomy) > 0 && len(newRep.TransportEconomy) > 0 {
		oldEc := map[string]TransportEconomyRow{}
		for _, row := range oldRep.TransportEconomy {
			oldEc[fmt.Sprintf("%s/%s/x%d", row.Path, row.Carrier, row.Clients)] = row
		}
		if _, err := fmt.Fprintf(w, "\nsyscall economy (µs/op, %d pipelined clients)\n%-34s%10s%10s%9s\n",
			TransportEconomyClients, "cell", "old", "new", "delta"); err != nil {
			return err
		}
		for _, row := range newRep.TransportEconomy {
			key := fmt.Sprintf("%s/%s/x%d", row.Path, row.Carrier, row.Clients)
			old, ok := oldEc[key]
			if !ok {
				unmatched++
				continue
			}
			if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
				key, old.MicrosPerOp, row.MicrosPerOp, deltaPct(old.MicrosPerOp, row.MicrosPerOp)); err != nil {
				return err
			}
		}
	}

	// Backend sweep, when both reports carry it (pre-v4 have none).
	if len(oldRep.Backends) > 0 && len(newRep.Backends) > 0 {
		oldBe := map[string]BackendReportRow{}
		for _, row := range oldRep.Backends {
			oldBe[fmt.Sprintf("%s/%s/%d", row.Strategy, row.Backend, row.Block)] = row
		}
		if _, err := fmt.Fprintf(w, "\nbackend sweep (µs/op)\n%-34s%10s%10s%9s\n", "cell", "old", "new", "delta"); err != nil {
			return err
		}
		for _, row := range newRep.Backends {
			old, ok := oldBe[fmt.Sprintf("%s/%s/%d", row.Strategy, row.Backend, row.Block)]
			if !ok {
				unmatched++
				continue
			}
			for _, col := range []struct {
				op       string
				old, new float64
			}{
				{"read", old.ReadMicros, row.ReadMicros},
				{"write", old.WriteMicros, row.WriteMicros},
			} {
				if col.old == 0 || col.new == 0 {
					continue // read-only backends carry no write column
				}
				key := fmt.Sprintf("%s/%s/%d/%s", row.Strategy, row.Backend, row.Block, col.op)
				if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
					key, col.old, col.new, deltaPct(col.old, col.new)); err != nil {
					return err
				}
			}
		}
	}

	// Fleet scaling sweep, when both reports carry it (pre-v7 have none).
	// Throughput cells: positive delta is the improvement.
	if len(oldRep.Fleet) > 0 && len(newRep.Fleet) > 0 {
		oldFl := map[string]FleetReportRow{}
		for _, row := range oldRep.Fleet {
			oldFl[fmt.Sprintf("%s/s%d/r%d/x%d", row.Cell, row.Shards, row.Replicas, row.Clients)] = row
		}
		if _, err := fmt.Fprintf(w, "\nfleet sweep (aggregate MB/s; positive delta = faster)\n%-34s%10s%10s%9s\n", "cell", "old", "new", "delta"); err != nil {
			return err
		}
		for _, row := range newRep.Fleet {
			key := fmt.Sprintf("%s/s%d/r%d/x%d", row.Cell, row.Shards, row.Replicas, row.Clients)
			old, ok := oldFl[key]
			if !ok {
				unmatched++
				continue
			}
			if _, err := fmt.Fprintf(w, "%-34s%10.1f%10.1f%+8.1f%%\n",
				key, old.MBPerSec, row.MBPerSec, deltaPct(old.MBPerSec, row.MBPerSec)); err != nil {
				return err
			}
		}
	}

	if unmatched > 0 {
		if _, err := fmt.Fprintf(w, "\n(%d cells present in only one report were skipped)\n", unmatched); err != nil {
			return err
		}
	}
	return nil
}

// CompareFiles loads two report files and writes their comparison table,
// the engine behind afbench -compare and `make bench-compare`.
func CompareFiles(w io.Writer, oldPath, newPath string) error {
	oldRep, err := LoadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := LoadReport(newPath)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "benchmark comparison: %s -> %s\n\n",
		strings.TrimSpace(oldPath), strings.TrimSpace(newPath)); err != nil {
		return err
	}
	return WriteCompareTable(w, oldRep, newRep)
}
