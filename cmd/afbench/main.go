// Command afbench regenerates the paper's Figure 6 with its exact
// methodology: for every panel — (a) remote source, (b) on-disk cache,
// (c) in-memory cache — it times 1000 fixed-size-block Read and Write calls
// per implementation strategy and block size, printing one table per panel.
//
//	afbench                  # all six panels, 1000 ops per point
//	afbench -panel a -op read
//	afbench -ops 200 -process -baseline
//
// With -parallel it instead sweeps concurrent clients over one shared handle
// per strategy, reporting aggregate throughput and speedup:
//
//	afbench -parallel 1,4,16 -op read
//
// With -chaos it sweeps connection-drop rates over the remote path through a
// fault-injecting proxy, reporting recovery latency and surviving throughput:
//
//	afbench -chaos 0,0.01,0.05,0.1 -ops 500
//
// With -churn it sweeps open/close cycles — cold procctl versus the warm
// sentinel pool versus the in-process strategies:
//
//	afbench -churn 100 -pool 4
//
// With -backend it sweeps storage backends behind the same thread-strategy
// sentinel (the manifest backend= parameter), isolating the seam's cost:
//
//	afbench -backend sweep
//	afbench -backend mem,remote -ops 500
//
// With -tenants it sweeps concurrent sessions against the daemon's session
// registry — admission, per-tenant quota rejections, and graceful-drain
// latency at each concurrency target:
//
//	afbench -tenants 64,1024
//
// With -fleet it sweeps sharded FileServer fleets — aggregate read
// throughput of 16 clients against 1/2/4 bandwidth-capped shards, plus a
// hot-file replication pair:
//
//	afbench -fleet 1,2,4
//
// With -full it runs the Figure 6 panels, a remote-path concurrency sweep,
// the many-tenant session sweep, the fleet scaling sweep, and the churn
// sweep, merging everything into one JSON report:
//
//	afbench -full -json BENCH_3.json
//
// -compare diffs two such reports; -cpuprofile/-memprofile capture pprof
// profiles of whichever mode runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/activefile/sentinel"
	"repro/internal/bench"
)

func main() {
	sentinel.MaybeChild() // afbench spawns itself for the process strategies
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	flags := flag.NewFlagSet("afbench", flag.ContinueOnError)
	var (
		panel       = flags.String("panel", "all", `panel to run: "a" (remote), "b" (disk), "c" (memory), or "all"`)
		op          = flags.String("op", "both", `operation: "read", "write", or "both"`)
		ops         = flags.Int("ops", bench.DefaultOps, "operations per data point")
		blocks      = flags.String("blocks", "", "comma-separated block sizes (default 8,32,128,512,2048)")
		process     = flags.Bool("process", false, "include the plain process strategy (no control channel)")
		baseline    = flags.Bool("baseline", true, "include the no-sentinel baseline series")
		parallel    = flags.String("parallel", "", "comma-separated concurrent-client counts (e.g. 1,4,16); sweeps parallel throughput instead of Figure 6")
		chaos       = flags.String("chaos", "", "comma-separated connection-drop rates (e.g. 0,0.01,0.1); sweeps fault recovery instead of Figure 6")
		chaosSeed   = flags.Int64("chaos-seed", 1, "seed for the chaos fault schedule")
		latency     = flags.Duration("latency", 0, "injected remote-service latency per operation (e.g. 200us), simulating a distant source")
		jsonPath    = flags.String("json", "", "also write the Figure 6 results as a machine-readable JSON report to this file")
		transport   = flags.String("transport", "", `control-channel carrier for the procctl strategies: "pipe", "shm", or "sweep" to run the pipe-vs-shm comparison instead of Figure 6`)
		backends    = flags.String("backend", "", `sweep per-backend cost instead of Figure 6: comma-separated backend kinds (mem,nativefs,rofs,errorfs,remote) or "sweep" for all`)
		readAhead   = flags.Bool("readahead", true, "enable adaptive read-ahead in the sentinel strategies (ablation switch)")
		writeBehind = flags.Bool("writebehind", false, "enable write coalescing in the sentinel strategies")
		tenants     = flags.String("tenants", "", "comma-separated concurrent-session counts (e.g. 64,1024); sweeps the daemon's multi-tenant session layer instead of Figure 6")
		fleetCells  = flags.String("fleet", "", "comma-separated shard counts (e.g. 1,2,4); sweeps sharded-fleet scaling instead of Figure 6")
		fleetBW     = flags.Int("fleet-bw", bench.DefaultFleetBandwidthMB, "per-shard bandwidth cap for the fleet sweep in MB/s (negative = uncapped)")
		churn       = flags.Int("churn", 0, "sweep open/close churn with this many opens per cell instead of Figure 6")
		pool        = flags.Int("pool", bench.DefaultChurnPool, "warm sentinel pool size for the churn sweep's pooled cell")
		full        = flags.Bool("full", false, "run Figure 6 + a remote concurrency sweep + the churn sweep, merged into one JSON report")
		compare     = flags.String("compare", "", `diff two JSON reports ("old.json,new.json") and exit`)
		cpuprofile  = flags.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = flags.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	if *compare != "" {
		parts := strings.Split(*compare, ",")
		if len(parts) != 2 {
			return fmt.Errorf(`-compare wants "old.json,new.json", got %q`, *compare)
		}
		return bench.CompareFiles(os.Stdout, strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "afbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live heap, not garbage awaiting collection
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "afbench: memprofile:", err)
			}
		}()
	}

	params := map[string]string{}
	if !*readAhead {
		params["readahead"] = "false"
	}
	if *writeBehind {
		params["writebehind"] = "true"
	}
	transportSweep := false
	switch *transport {
	case "":
	case "pipe", "shm":
		params["transport"] = *transport
	case "sweep":
		transportSweep = true
	default:
		return fmt.Errorf(`unknown transport %q (want "pipe", "shm", or "sweep")`, *transport)
	}
	if len(params) == 0 {
		params = nil
	}

	opts := bench.FigureOptions{
		Ops:             *ops,
		IncludeProcess:  *process,
		IncludeBaseline: *baseline,
		Params:          params,
	}
	switch *panel {
	case "all":
	case "a":
		opts.Paths = []bench.CachePath{bench.PathRemote}
	case "b":
		opts.Paths = []bench.CachePath{bench.PathDisk}
	case "c":
		opts.Paths = []bench.CachePath{bench.PathMemory}
	default:
		return fmt.Errorf("unknown panel %q", *panel)
	}
	switch *op {
	case "both":
	case "read":
		opts.OpsFilter = bench.OpRead
	case "write":
		opts.OpsFilter = bench.OpWrite
	default:
		return fmt.Errorf("unknown op %q", *op)
	}
	if *blocks != "" {
		for _, part := range strings.Split(*blocks, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad block size %q", part)
			}
			opts.Blocks = append(opts.Blocks, n)
		}
	}

	var rates []float64
	if *chaos != "" {
		for _, part := range strings.Split(*chaos, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("bad chaos rate %q", part)
			}
			rates = append(rates, f)
		}
	}

	var tenantCells []int
	if *tenants != "" {
		for _, part := range strings.Split(*tenants, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad tenant session count %q", part)
			}
			tenantCells = append(tenantCells, n)
		}
	}

	var fleetShards []int
	if *fleetCells != "" {
		for _, part := range strings.Split(*fleetCells, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad fleet shard count %q", part)
			}
			fleetShards = append(fleetShards, n)
		}
	}

	var degrees []int
	if *parallel != "" {
		for _, part := range strings.Split(*parallel, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad parallel degree %q", part)
			}
			degrees = append(degrees, n)
		}
	}

	dir, err := os.MkdirTemp("", "afbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	runner, err := bench.NewRunner(dir)
	if err != nil {
		return err
	}
	defer runner.Close()

	if *latency > 0 {
		runner.SetRemoteLatency(*latency)
	}

	if *full {
		return runFull(runner, opts, *ops, *churn, *pool, tenantCells, fleetShards, *fleetBW, params, *jsonPath)
	}

	if fleetShards != nil {
		fopts := bench.FleetOptions{Shards: fleetShards, BandwidthMB: *fleetBW}
		results, err := runner.RunFleet(fopts)
		if err != nil {
			return err
		}
		if err := bench.WriteFleetTable(os.Stdout, fopts, results); err != nil {
			return err
		}
		if *jsonPath != "" {
			rep := bench.BuildReport(nil, *ops, params)
			rep.AddFleet(fopts, results)
			if err := rep.WriteJSONFile(*jsonPath); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	}

	if tenantCells != nil {
		topts := bench.TenantOptions{Sessions: tenantCells}
		results, err := runner.RunTenants(topts)
		if err != nil {
			return err
		}
		if err := bench.WriteTenantTable(os.Stdout, topts, results); err != nil {
			return err
		}
		if *jsonPath != "" {
			rep := bench.BuildReport(nil, *ops, params)
			rep.AddTenants(results)
			if err := rep.WriteJSONFile(*jsonPath); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	}

	if *backends != "" {
		bopts := bench.BackendOptions{Ops: *ops, Blocks: opts.Blocks}
		if *backends != "sweep" && *backends != "all" {
			for _, part := range strings.Split(*backends, ",") {
				bopts.Names = append(bopts.Names, strings.TrimSpace(part))
			}
		}
		results, err := runner.RunBackends(bopts)
		if err != nil {
			return err
		}
		if err := bench.WriteBackendTable(os.Stdout, bopts.Strategy, *ops, results); err != nil {
			return err
		}
		if *jsonPath != "" {
			rep := bench.BuildReport(nil, *ops, params)
			rep.AddBackends(bopts.Strategy, results)
			if err := rep.WriteJSONFile(*jsonPath); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	}

	if transportSweep {
		topts := bench.TransportOptions{Ops: *ops, Blocks: opts.Blocks, Params: params}
		if len(opts.Paths) == 1 {
			topts.Path = opts.Paths[0]
		}
		results, err := runner.RunTransports(topts)
		if err != nil {
			return err
		}
		if err := bench.WriteTransportTable(os.Stdout, topts.Path, *ops, results); err != nil {
			return err
		}
		econ, err := runner.RunTransportEconomy(topts)
		if err != nil {
			return err
		}
		if err := bench.WriteTransportEconomyTable(os.Stdout, topts.Path, *ops, econ); err != nil {
			return err
		}
		if *jsonPath != "" {
			rep := bench.BuildReport(nil, *ops, params)
			rep.AddTransports(topts.Path, results)
			rep.AddTransportEconomy(topts.Path, econ)
			if err := rep.WriteJSONFile(*jsonPath); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
		return nil
	}

	if *churn > 0 {
		fmt.Printf("active files — open/close churn (%d opens per cell)\n\n", *churn)
		results, err := runner.RunChurn(bench.ChurnOptions{Opens: *churn, Pool: *pool, Params: params})
		if err != nil {
			return err
		}
		return bench.WriteChurnTable(os.Stdout, results)
	}

	if rates != nil {
		copts := bench.ChaosOptions{Rates: rates, Ops: *ops, Seed: *chaosSeed}
		if len(opts.Blocks) > 0 {
			copts.BlockSize = opts.Blocks[0]
		}
		fmt.Printf("active files — chaos sweep, remote path (%d ops per point)\n\n", *ops)
		points, err := runner.RunChaos(copts)
		if err != nil {
			return err
		}
		return bench.WriteChaosTable(os.Stdout, points)
	}

	if degrees != nil {
		popts := bench.ParallelOptions{
			Ops:       *ops,
			Degrees:   degrees,
			OpsFilter: opts.OpsFilter,
			Params:    params,
		}
		if len(opts.Blocks) > 0 {
			popts.BlockSize = opts.Blocks[0]
		}
		if len(opts.Paths) == 1 {
			popts.Path = opts.Paths[0]
		}
		fmt.Printf("active files — parallel clients (%d ops per point)\n\n", *ops)
		panels, err := runner.RunParallel(popts)
		if err != nil {
			return err
		}
		for _, p := range panels {
			if err := p.WriteTable(os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Printf("active files — Figure 6 reproduction (%d ops per point)\n\n", *ops)
	panels, err := runner.RunFigure6(opts)
	if err != nil {
		return err
	}
	for _, p := range panels {
		if err := p.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		rep := bench.BuildReport(panels, *ops, params)
		if err := rep.WriteJSONFile(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return nil
}

// runFull runs the whole battery — Figure 6, a remote-path concurrency sweep
// per small block size (where command-channel batching shows), the
// many-tenant session sweep, and the open/close churn sweep — and merges
// everything into one JSON report.
func runFull(runner *bench.Runner, opts bench.FigureOptions, ops, churnOpens, pool int, tenantCells, fleetShards []int, fleetBW int, params map[string]string, jsonPath string) error {
	fmt.Printf("active files — full battery (%d ops per point)\n\n", ops)
	panels, err := runner.RunFigure6(opts)
	if err != nil {
		return err
	}
	for _, p := range panels {
		if err := p.WriteTable(os.Stdout); err != nil {
			return err
		}
	}
	rep := bench.BuildReport(panels, ops, params)

	// The concurrency sweeps disable read-ahead: the prefetcher absorbs
	// sequential parallel reads before they reach the mux, which would hide
	// exactly the command-channel batching these sweeps exist to measure.
	parallelParams := map[string]string{}
	for k, v := range params {
		parallelParams[k] = v
	}
	parallelParams["readahead"] = "false"
	for _, block := range []int{8, 32, 128} {
		pPanels, err := runner.RunParallel(bench.ParallelOptions{
			Ops:       ops,
			BlockSize: block,
			Degrees:   []int{1, 4, 16},
			Path:      bench.PathRemote,
			OpsFilter: bench.OpRead,
			Params:    parallelParams,
		})
		if err != nil {
			return err
		}
		for _, p := range pPanels {
			if err := p.WriteTable(os.Stdout); err != nil {
				return err
			}
		}
		rep.AddParallel(pPanels)
	}

	// Carrier sweep: the same procctl cells over pipes and shm rings. Like
	// the concurrency sweeps, read-ahead is off inside RunTransports so the
	// carrier's round trip is on the measured path.
	tResults, err := runner.RunTransports(bench.TransportOptions{Ops: ops, Params: params})
	if err != nil {
		return err
	}
	if err := bench.WriteTransportTable(os.Stdout, bench.PathMemory, ops, tResults); err != nil {
		return err
	}
	rep.AddTransports(bench.PathMemory, tResults)

	// Syscall-economy cells: the carriers' wakeup counters under pipelined
	// load — doorbells per frame on the rings, frames per read wakeup on the
	// pipes.
	econ, err := runner.RunTransportEconomy(bench.TransportOptions{Ops: ops, Params: params})
	if err != nil {
		return err
	}
	if err := bench.WriteTransportEconomyTable(os.Stdout, bench.PathMemory, ops, econ); err != nil {
		return err
	}
	rep.AddTransportEconomy(bench.PathMemory, econ)

	// Backend sweep: the same thread-strategy sentinel over every backend
	// kind, isolating what the storage seam itself costs.
	beResults, err := runner.RunBackends(bench.BackendOptions{Ops: ops})
	if err != nil {
		return err
	}
	if err := bench.WriteBackendTable(os.Stdout, 0, ops, beResults); err != nil {
		return err
	}
	rep.AddBackends(0, beResults)

	// Many-tenant sweep: the daemon's session registry under concurrent
	// sessions — admission latency, quota rejections, drain. The top cell
	// holds over a thousand sessions open at once.
	tOpts := bench.TenantOptions{Sessions: tenantCells}
	tenResults, err := runner.RunTenants(tOpts)
	if err != nil {
		return err
	}
	if err := bench.WriteTenantTable(os.Stdout, tOpts, tenResults); err != nil {
		return err
	}
	rep.AddTenants(tenResults)

	// Fleet scaling sweep: aggregate throughput against 1/2/4 bandwidth-
	// capped shards, plus the hot-file replication pair.
	fOpts := bench.FleetOptions{Shards: fleetShards, BandwidthMB: fleetBW}
	fResults, err := runner.RunFleet(fOpts)
	if err != nil {
		return err
	}
	if err := bench.WriteFleetTable(os.Stdout, fOpts, fResults); err != nil {
		return err
	}
	rep.AddFleet(fOpts, fResults)

	if churnOpens <= 0 {
		churnOpens = bench.DefaultChurnOpens
	}
	churnResults, err := runner.RunChurn(bench.ChurnOptions{Opens: churnOpens, Pool: pool, Params: params})
	if err != nil {
		return err
	}
	if err := bench.WriteChurnTable(os.Stdout, churnResults); err != nil {
		return err
	}
	rep.AddChurn(churnResults)

	if jsonPath != "" {
		if err := rep.WriteJSONFile(jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}
