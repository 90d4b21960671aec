// Command dbsense runs the paper's experiments by id and prints
// paper-style tables.
//
// Usage:
//
//	dbsense run <experiment> [flags]   run one experiment (or "all")
//	dbsense serve [flags]              one serving cell at -rate conn/s
//	dbsense list                       list experiments
//
// Flags are accepted before or after the experiment name.
//
// Experiments: table2, fig2cores, fig2llc, table3, table4, fig3, fig4,
// fig5, fig5write, fig6, fig7, fig8, trace, qstats, serving,
// replication, chaos, all.
// With -faults, the resilience experiment sweeps a fault-intensity axis
// and reports throughput retention, the recovery experiment crashes the
// engine at seeded points, restarts it ARIES-style, and reports MTTR
// versus checkpoint interval and storage bandwidth plus a verified crash
// matrix, and the failover experiment crashes a replicated primary,
// promotes the most caught-up standby, and verifies a point-in-time
// restore from the WAL archive, and the chaos experiment runs the
// seeded matrix of net-fault schedules x primary crashes x arrival
// storms against a quorum-replicated cluster behind resilient clients,
// auditing that every acknowledged commit survives (see EXPERIMENTS.md,
// "Resilience experiments", "Crash recovery", "Replication & failover",
// and "Chaos & client resilience").
//
// Unknown commands and experiment names, and out-of-range flag values
// (-emit, -workload, -schedule, -trace), are usage errors: exit status
// 2, rejected before any side effect (no output file is created, no
// sweep starts).
//
// With -emit json|csv, every result is also written as structured
// records (JSONL or fixed-column CSV) to the -o path, byte-identical
// across runs at the same seed and flags (see EXPERIMENTS.md,
// "Structured output").
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/tpch"
)

var (
	density  = flag.Int("density", 200, "scale-down density (generated rows per paper scale unit)")
	measure  = flag.Float64("measure", 8, "measurement window in simulated seconds")
	warmup   = flag.Float64("warmup", 2, "warmup in simulated seconds")
	seed     = flag.Int64("seed", 1, "simulation seed")
	workload = flag.String("workload", "", "restrict fig2*/fig4 to one workload (tpch|tpce|asdb|htap)")
	quick    = flag.Bool("quick", false, "reduced sweeps and scale factors for a fast pass")
	parallel = flag.Int("parallel", runtime.NumCPU(), "worker threads for experiment sweeps (results are identical at any setting)")
	progress = flag.Bool("progress", true, "report per-point sweep progress on stderr")
	faults   = flag.Bool("faults", false, "enable the resilience experiment (deterministic fault injection)")
	emitFmt  = flag.String("emit", "", "also write structured records: json (JSONL) or csv")
	emitOut  = flag.String("o", "", "structured-output path (default dbsense-out.jsonl or .csv)")
	traceQ   = flag.Int("trace", 14, "TPC-H query number for the trace experiment")

	servRate  = flag.Float64("rate", 16, "serve/chaos: mean connection arrivals per second")
	servStorm = flag.Bool("storm", false, "serve: drive a 6x arrival burst through the middle of the window")

	chaosSched = flag.String("schedule", "", "chaos: restrict the matrix to cells using one named fault schedule")

	metricsOut = flag.String("metrics-out", "", "write end-of-run telemetry as Prometheus text exposition to this file")
	profileDir = flag.String("profile", "", "write simulator self-profiles (pprof CPU/heap + per-subsystem overhead report) to this directory")
)

// em is the structured-record emitter (nil when -emit is unset; all
// harness.Emit* helpers no-op on nil).
var em *harness.Emitter

// promSnap is one telemetry snapshot queued for -metrics-out exposition,
// labelled with its experiment cell.
type promSnap struct {
	labels [][2]string
	snap   *telemetry.Snapshot
}

var promSnaps []promSnap

// recordProm queues a snapshot for the Prometheus exposition file (no-op
// without -metrics-out or for cells that carried no telemetry).
func recordProm(snap *telemetry.Snapshot, labels ...[2]string) {
	if *metricsOut == "" || snap == nil {
		return
	}
	promSnaps = append(promSnaps, promSnap{labels: labels, snap: snap})
}

// writeMetricsOut writes every queued snapshot as Prometheus text
// exposition, one block per experiment cell distinguished by labels.
func writeMetricsOut() {
	if *metricsOut == "" {
		return
	}
	f, err := os.Create(*metricsOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, ps := range promSnaps {
		if err := ps.snap.WriteProm(f, ps.labels...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "telemetry exposition written to %s\n", *metricsOut)
}

// cpuProfile is the open CPU-profile file between start and finish.
var cpuProfile *os.File

// startProfile arms simulator self-profiling and begins the host CPU
// profile. Runs before any experiment so the whole run is covered.
func startProfile() {
	if *profileDir == "" {
		return
	}
	if err := os.MkdirAll(*profileDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f, err := os.Create(filepath.Join(*profileDir, "cpu.pprof"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cpuProfile = f
	sim.EnableProfiling()
}

// finishProfile stops the CPU profile, writes the heap profile, and
// renders the per-subsystem wall-ms-per-sim-ms overhead report to stdout
// and DIR/overhead.txt.
func finishProfile() {
	if *profileDir == "" {
		return
	}
	pprof.StopCPUProfile()
	if err := cpuProfile.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hf, err := os.Create(filepath.Join(*profileDir, "heap.pprof"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(hf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := hf.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	report := sim.ProfReport() +
		fmt.Sprintf("host allocations: %d objects, %.1f MB cumulative\n",
			ms.Mallocs, float64(ms.TotalAlloc)/1e6)
	if err := os.WriteFile(filepath.Join(*profileDir, "overhead.txt"), []byte(report), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(report)
}

func opts() harness.Options {
	o := harness.DefaultOptions()
	o.Density = *density
	o.Measure = sim.DurationOf(*measure)
	o.Warmup = sim.DurationOf(*warmup)
	o.Seed = *seed
	o.Parallel = *parallel
	// Structured output and Prometheus exposition both consume telemetry
	// series, so either flag arms the registry; plain table runs stay
	// bit-identical to a telemetry-free build.
	o.Telemetry = *emitFmt != "" || *metricsOut != ""
	if *progress {
		o.Progress = printProgress
	}
	if *quick {
		o.Density = 120
		o.Measure = sim.DurationOf(2)
		o.Warmup = sim.DurationOf(1)
		o.Users = 32
	}
	return o
}

// printProgress overwrites one stderr status line per sweep as points
// complete, finishing the line when the sweep does.
func printProgress(done, total int, elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "\r  sweep %d/%d points · %.1fs", done, total, elapsed.Seconds())
	if done == total {
		fmt.Fprintln(os.Stderr)
	}
}

func workloads() []harness.Workload {
	if *workload != "" {
		return []harness.Workload{harness.Workload(*workload)}
	}
	return []harness.Workload{harness.WAsdb, harness.WTpce, harness.WHtap, harness.WTpch}
}

func sfsFor(w harness.Workload) []int {
	return harness.PaperSFs(w)
}

// experiments is the canonical list of experiment names, in "all" order
// where applicable. The fault-gated ones (resilience, recovery,
// failover) and the replication sweep are not part of "all".
var experiments = []string{
	"table2", "fig2cores", "fig2llc", "table3", "table4", "fig3", "fig4",
	"fig5", "fig5write", "fig6", "fig7", "fig8", "trace", "qstats",
	"serving", "replication", "resilience", "recovery", "failover", "chaos", "all",
}

// expDesc gives each experiment a one-liner for `dbsense list`.
var expDesc = map[string]string{
	"table2":      "peak throughput per workload at paper scale",
	"fig2cores":   "throughput vs logical cores, per workload and SF",
	"fig2llc":     "throughput and MPKI vs LLC size (also derives Table 4)",
	"table3":      "wait-type ratios across scale factors",
	"table4":      "cache sensitivity classes (fig2llc's sweep, table only)",
	"fig3":        "resource-demand trends along core and cache sweeps",
	"fig4":        "bandwidth-demand distributions (SSD read/write, DRAM)",
	"fig5":        "TPC-H QPS vs SSD read limit, against a linear model",
	"fig5write":   "ASDB TPS vs SSD write limit",
	"fig6":        "TPC-H per-query speedup vs MAXDOP",
	"fig7":        "Q20 plan shapes at MAXDOP 1 vs 32",
	"fig8":        "TPC-H speedup vs memory-grant fraction",
	"trace":       "execution trace tree for one TPC-H query",
	"qstats":      "per-statement execution statistics, per workload",
	"serving":     "open-loop network serving sweep: latency/goodput/shed vs offered load",
	"replication": "WAL log-shipping throughput and commit-ack latency (-faults not required)",
	"resilience":  "throughput retention under fault injection (requires -faults)",
	"recovery":    "ARIES restart MTTR and crash matrix (requires -faults)",
	"failover":    "replica promotion RTO and PITR (requires -faults)",
	"chaos":       "acked-commit safety under net faults, crashes, and failover (requires -faults)",
	"all":         "every non-fault experiment in sequence",
}

func printList() {
	for _, e := range experiments {
		fmt.Printf("  %-11s %s\n", e, expDesc[e])
	}
}

func usage() {
	list := ""
	for i, e := range experiments {
		if i > 0 {
			list += "|"
		}
		list += e
	}
	fmt.Fprintf(os.Stderr, `usage:
  dbsense run <experiment> [flags]   run one experiment
  dbsense serve [flags]              one serving cell at -rate conn/s
  dbsense list                       list experiments
experiments: %s
`, list)
	os.Exit(2)
}

// parseFlags parses a subcommand's arguments, accepting flags both
// before and after positional arguments (the standard flag package
// stops at the first positional), and returns the positionals in
// order.
func parseFlags(args []string) []string {
	var pos []string
	flag.CommandLine.Parse(args)
	rest := flag.Args()
	for len(rest) > 0 {
		pos = append(pos, rest[0])
		flag.CommandLine.Parse(rest[1:])
		rest = flag.Args()
	}
	return pos
}

// parseCommand parses the command line and validates every flag value
// before any side effect, returning the mode ("run", "serve" or "list")
// and, for run, the experiment name.
func parseCommand(args []string) (mode, exp string, err error) {
	if len(args) > 0 {
		mode = args[0]
	}
	switch mode {
	case "run", "serve", "list":
	default:
		return "", "", fmt.Errorf("unknown command %q (want run, serve, or list)", mode)
	}
	pos := parseFlags(args[1:])
	if mode == "run" {
		if len(pos) != 1 {
			return "", "", fmt.Errorf("run takes one experiment name, got %d arguments", len(pos))
		}
		exp = pos[0]
		if !slices.Contains(experiments, exp) {
			return "", "", fmt.Errorf("unknown experiment %q", exp)
		}
	} else if len(pos) != 0 {
		return "", "", fmt.Errorf("%s takes no arguments, got %q", mode, pos)
	}
	if *emitFmt != "" && *emitFmt != "json" && *emitFmt != "csv" {
		return "", "", fmt.Errorf("unknown -emit format %q (want json or csv)", *emitFmt)
	}
	switch *workload {
	case "", "tpch", "tpce", "asdb", "htap":
	default:
		return "", "", fmt.Errorf("unknown -workload %q (want tpch, tpce, asdb, or htap)", *workload)
	}
	if (exp == "resilience" || exp == "recovery" || exp == "failover" || exp == "chaos") && !*faults {
		return "", "", fmt.Errorf("the %s experiment requires -faults", exp)
	}
	if *chaosSched != "" && !slices.Contains(fault.ScheduleNames(), *chaosSched) {
		return "", "", fmt.Errorf("unknown -schedule %q (want one of %v)", *chaosSched, fault.ScheduleNames())
	}
	if *traceQ < 1 || *traceQ > tpch.NumQueries {
		return "", "", fmt.Errorf("-trace %d out of range (want a TPC-H query number 1..%d)", *traceQ, tpch.NumQueries)
	}
	return mode, exp, nil
}

func main() {
	mode, exp, err := parseCommand(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		usage()
	}
	if mode == "list" {
		printList()
		return
	}
	if *emitFmt != "" {
		path := *emitOut
		if path == "" {
			ext := "jsonl"
			if *emitFmt == "csv" {
				ext = "csv"
			}
			path = "dbsense-out." + ext
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		em, err = harness.NewEmitter(f, *emitFmt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer func() {
			if err := em.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "structured records written to %s\n", path)
		}()
	}
	startProfile()
	switch {
	case mode == "serve":
		runServe()
	case exp == "all":
		// table4 derives from fig2llc's sweep, which run("fig2llc")
		// prints alongside the curves, so it is not repeated here.
		for _, e := range []string{"table2", "fig2cores", "fig2llc", "table3", "fig3", "fig4", "fig5", "fig5write", "fig6", "fig7", "fig8", "trace", "qstats"} {
			run(e)
		}
	default:
		run(exp)
	}
	finishProfile()
	writeMetricsOut()
}

func run(exp string) {
	o := opts()
	fmt.Printf("== %s (density=%d, measure=%.0fs) ==\n", exp, o.Density, o.Measure.Seconds())
	switch exp {
	case "table2":
		tb := harness.Table2(o)
		fmt.Print(tb.Render())
		harness.EmitTable(em, "table2", "table2", tb)
	case "fig2cores":
		for _, w := range workloads() {
			res := harness.Fig2Cores(w, sfsFor(w), coreSteps(), o)
			printCurves(fmt.Sprintf("Fig2 cores: %s (throughput vs logical cores)", w), res.PerfBySF, "cores")
			harness.EmitFamily(em, "fig2cores", string(w), "throughput", "cores", "per_sec", harness.CurveFamily(res.PerfBySF))
		}
	case "fig2llc":
		var all []harness.Fig2LLCResult
		for _, w := range workloads() {
			res := harness.Fig2LLC(w, sfsFor(w), llcSteps(), o)
			all = append(all, res)
			printCurves(fmt.Sprintf("Fig2 LLC: %s (throughput vs MB)", w), res.PerfBySF, "MB")
			printCurves(fmt.Sprintf("Fig2 MPKI: %s (MPKI vs MB)", w), res.MPKIBySF, "MB")
			harness.EmitFamily(em, "fig2llc", string(w), "throughput", "llc_mb", "per_sec", harness.CurveFamily(res.PerfBySF))
			harness.EmitFamily(em, "fig2llc", string(w), "mpki", "llc_mb", "mpki", harness.CurveFamily(res.MPKIBySF))
		}
		t4 := harness.Table4(all)
		fmt.Printf("-- Table 4 (derived from the same sweep) --\n%s", t4.Render())
		harness.EmitTable(em, "fig2llc", "table4", t4)
	case "table4":
		var all []harness.Fig2LLCResult
		for _, w := range workloads() {
			all = append(all, harness.Fig2LLC(w, sfsFor(w), llcSteps(), o))
		}
		tb := harness.Table4(all)
		fmt.Print(tb.Render())
		harness.EmitTable(em, "table4", "table4", tb)
	case "table3":
		small, large := 5000, 15000
		if *quick {
			small, large = 2000, 6000
		}
		res := harness.Table3(small, large, o)
		t := core.Table{Headers: []string{"Wait Type", fmt.Sprintf("SF%d/SF%d ratio", large, small)}}
		for _, r := range res.Ratios {
			t.AddRow(r.Label, core.F(r.Value()))
		}
		t.AddRow(res.SumLockLatchPage.Label, core.F(res.SumLockLatchPage.Value()))
		fmt.Print(t.Render())
		harness.EmitTable(em, "table3", "table3", t)
	case "fig3":
		for _, pair := range []struct {
			w  harness.Workload
			sf int
		}{{harness.WTpch, 100}, {harness.WAsdb, 2000}} {
			res := harness.Fig3(pair.w, pair.sf, o)
			t := core.Table{Headers: []string{"trend", "knob", "throughput", "SSD-R MB/s", "SSD-W MB/s", "DRAM MB/s"}}
			for _, p := range res.CoreDriven {
				t.AddRow("cores", core.F(p.Knob), core.F(p.Throughput), core.F(p.SSDReadMBps), core.F(p.SSDWriteMBps), core.F(p.DRAMMBps))
			}
			for _, p := range res.CacheDriven {
				t.AddRow("LLC-MB", core.F(p.Knob), core.F(p.Throughput), core.F(p.SSDReadMBps), core.F(p.SSDWriteMBps), core.F(p.DRAMMBps))
			}
			fmt.Printf("-- %s SF %d --\n%s", pair.w, pair.sf, t.Render())
			harness.EmitTable(em, "fig3", fmt.Sprintf("%s-sf%d", pair.w, pair.sf), t)
		}
	case "fig4":
		t := core.Table{Headers: []string{"workload", "SF", "metric", "p10", "p50", "p90", "p99", "mean"}}
		ws := workloads()
		results := harness.Sweep(o.Parallel, len(ws), func(i int) harness.Fig4Result {
			sfs := harness.PaperSFs(ws[i])
			return harness.Fig4(ws[i], sfs[len(sfs)-1], o)
		}, o.Progress)
		for i, w := range ws {
			res := results[i]
			sf := res.SF
			for _, row := range []struct {
				name string
				d    metrics.Distribution
			}{{"SSD-read", res.SSDRead}, {"SSD-write", res.SSDWrite}, {"DRAM", res.DRAM}} {
				t.AddRow(string(w), fmt.Sprint(sf), row.name,
					core.F(row.d.Percentile(10)), core.F(row.d.Percentile(50)),
					core.F(row.d.Percentile(90)), core.F(row.d.Percentile(99)), core.F(row.d.Mean()))
			}
			harness.EmitDistribution(em, "fig4", string(w), sf, "ssd_read_mbps", "MB/s", res.SSDRead)
			harness.EmitDistribution(em, "fig4", string(w), sf, "ssd_write_mbps", "MB/s", res.SSDWrite)
			harness.EmitDistribution(em, "fig4", string(w), sf, "dram_mbps", "MB/s", res.DRAM)
		}
		fmt.Print(t.Render())
	case "fig5":
		steps := harness.Fig5Steps
		if *quick {
			steps = []float64{100, 400, 800, 2500}
		}
		c := harness.Fig5(o, steps)
		lin := c.LinearReference()
		t := core.Table{Headers: []string{"read limit MB/s", "QPS", "linear-model QPS"}}
		for i, p := range c.Points {
			t.AddRow(core.F(p.X), core.F(p.Y), core.F(lin.Points[i].Y))
		}
		fmt.Print(t.Render())
		harness.EmitCurve(em, "fig5", "tpch", 300, "qps", "read_limit_mbps", "qps", c)
		harness.EmitCurve(em, "fig5", "tpch", 300, "qps_linear_model", "read_limit_mbps", "qps", lin)
		target := c.Last().Y * 0.8
		actual, linear, ok := c.AllocationForTarget(target)
		if ok {
			fmt.Printf("to reach %.3f QPS: actual needs %.0f MB/s; a linear model would provision %.0f MB/s (%.0f%% over)\n",
				target, actual, linear, 100*(linear/actual-1))
		}
	case "fig5write":
		c := harness.Fig5Write(o)
		base := c.Last().Y
		t := core.Table{Headers: []string{"write limit MB/s", "TPS", "vs unlimited"}}
		for _, p := range c.Points {
			t.AddRow(core.F(p.X), core.F(p.Y), fmt.Sprintf("%+.0f%%", 100*(p.Y/base-1)))
		}
		fmt.Print(t.Render())
		harness.EmitCurve(em, "fig5write", "asdb", 2000, "tps", "write_limit_mbps", "tps", c)
	case "fig6":
		sfs := []int{10, 30, 100, 300}
		for _, sf := range sfs {
			res := harness.Fig6(sf, o, nil)
			t := core.Table{Headers: []string{"query", "dop1", "dop2", "dop4", "dop8", "dop16", "dop32"}}
			for q := 1; q <= tpch.NumQueries; q++ {
				row := []string{fmt.Sprintf("Q%d", q)}
				for _, dop := range harness.DOPSteps {
					row = append(row, core.F(res.Speedup(q, dop)))
				}
				t.AddRow(row...)
			}
			fmt.Printf("-- TPC-H SF %d: speedup relative to MAXDOP=32 --\n%s", sf, t.Render())
			harness.EmitTable(em, "fig6", fmt.Sprintf("sf%d", sf), t)
		}
	case "fig7":
		for _, sf := range []int{10, 300} {
			res := harness.Fig7(sf, o)
			fmt.Printf("-- Q20 @ SF %d --\nMAXDOP=1:\n%s\nMAXDOP=32:\n%s\n", sf, res.SerialPlan, res.ParallelPlan)
			harness.EmitTable(em, "fig7", fmt.Sprintf("q20-sf%d", sf), core.Table{
				Headers: []string{"maxdop", "shape"},
				Rows:    [][]string{{"1", res.SerialShape}, {"32", res.ParShape}},
			})
		}
	case "resilience":
		steps := harness.FaultSteps
		if *quick {
			steps = []float64{0, 1, 4}
		}
		for _, pair := range resiliencePoints() {
			res := harness.Resilience(pair.w, pair.sf, o, steps)
			fmt.Print(res.String())
			for _, p := range res.Points {
				em.Emit(harness.Record{
					Record: "point", Experiment: "resilience", Workload: string(pair.w), SF: pair.sf,
					Knob: "fault_intensity", X: p.Intensity,
					Fields: map[string]float64{
						"throughput":      p.Throughput,
						"retention":       p.Retention,
						"faults_injected": float64(p.FaultsInjected),
						"fault_io_errors": float64(p.FaultIOErrors),
						"io_retries":      float64(p.IORetries),
						"txn_retries":     float64(p.TxnRetries),
						"query_retries":   float64(p.QueryRetries),
						"deadline_kills":  float64(p.DeadlineKills),
						"degraded_plans":  float64(p.DegradedPlans),
						"failed":          float64(p.DegradedFailed),
					},
				})
			}
		}
	case "recovery":
		sf := 2000
		intervals := harness.RecoveryCkptIntervals
		if *quick {
			sf = 1000
			intervals = []sim.Duration{500 * sim.Millisecond, 2 * sim.Second}
		}
		res := harness.Recovery(sf, o, intervals, nil)
		fmt.Print(res.String())
		for _, p := range res.Points {
			em.Emit(harness.Record{
				Record: "curve_point", Experiment: "recovery", Workload: "asdb", SF: sf,
				Metric: "mttr_ms", Name: fmt.Sprintf("bw%.0fMBps", p.BandwidthMBps),
				Knob: "ckpt_interval_ms", X: p.CkptInterval.Seconds() * 1e3,
				Value: p.MTTRMs, Unit: "ms",
			})
			em.Emit(harness.Record{
				Record: "point", Experiment: "recovery", Workload: "asdb", SF: sf,
				Name: fmt.Sprintf("bw%.0fMBps", p.BandwidthMBps),
				Knob: "ckpt_interval_ms", X: p.CkptInterval.Seconds() * 1e3,
				Fields: map[string]float64{
					"mttr_ms":        p.MTTRMs,
					"log_scanned_kb": p.LogScannedKB,
					"redo_pages":     float64(p.RedoPages),
					"undo_records":   float64(p.UndoRecords),
					"clrs":           float64(p.CLRs),
					"winners":        float64(p.Winners),
					"losers":         float64(p.Losers),
					"lost_txns":      float64(p.LostTxns),
				},
			})
		}
		if err := res.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		m := harness.CrashMatrix(sf, o, nil)
		fmt.Print(m.String())
		for _, c := range m.Cells {
			idem := 0.0
			if c.Run.Idempotent() {
				idem = 1
			}
			rep := c.Run.Report
			em.Emit(harness.Record{
				Record: "point", Experiment: "recovery_matrix", Workload: "asdb", SF: sf,
				Name: c.Plan.Point.String(), Knob: "nth", X: float64(c.Plan.Nth),
				Text: c.Run.InvariantErr,
				Fields: map[string]float64{
					"crash_lsn":    float64(rep.CrashLSN),
					"lost_records": float64(rep.LostRecords),
					"lost_txns":    float64(rep.LostTxns),
					"winners":      float64(rep.Winners),
					"losers":       float64(rep.Losers),
					"redo_pages":   float64(rep.RedoPages),
					"undo_records": float64(rep.UndoRecords),
					"clrs":         float64(rep.CLRs),
					"mttr_ms":      rep.Elapsed.Seconds() * 1e3,
					"passes":       float64(c.Run.Passes),
					"idempotent":   idem,
				},
			})
		}
		if err := m.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "replication":
		sf := 2000
		var bandwidths []float64
		var replicas []int
		if *quick {
			sf = 1000
			bandwidths = []float64{200}
			replicas = []int{1}
		}
		res := harness.Replication(sf, o, nil, bandwidths, replicas)
		fmt.Print(res.String())
		for _, p := range res.Points {
			em.Emit(harness.Record{
				Record: "point", Experiment: "replication", Workload: "asdb", SF: sf,
				Name: fmt.Sprintf("%s-r%d", p.Mode, p.Replicas),
				Knob: "bandwidth_mbps", X: p.BandwidthMBps,
				Text: p.Err,
				Fields: map[string]float64{
					"replicas":      float64(p.Replicas),
					"tps":           p.TPS,
					"commit_ack_ms": p.CommitAckMs,
					"max_lag_kb":    p.MaxLagKB,
					"shipped_mb":    p.ShippedMB,
					"applied_txns":  float64(p.AppliedTxns),
					"unacked":       float64(p.Unacked),
				},
			})
			cell := fmt.Sprintf("%s-r%d-bw%.0f", p.Mode, p.Replicas, p.BandwidthMBps)
			harness.EmitTelemetry(em, "replication", "asdb", sf, cell, p.Telemetry)
			for _, tr := range p.CommitSpans {
				harness.EmitTrace(em, "replication", "asdb", sf, tr)
			}
			recordProm(p.Telemetry,
				[2]string{"experiment", "replication"},
				[2]string{"mode", p.Mode.String()},
				[2]string{"replicas", fmt.Sprint(p.Replicas)},
				[2]string{"bw_mbps", fmt.Sprintf("%.0f", p.BandwidthMBps)})
		}
		if err := res.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "failover":
		sf := 2000
		if *quick {
			sf = 1000
		}
		res := harness.Failover(sf, o, nil)
		fmt.Print(res.String())
		for _, c := range res.Cells {
			em.Emit(harness.Record{
				Record: "point", Experiment: "failover", Workload: "asdb", SF: sf,
				Name: c.Mode.String(), Knob: "replicas", X: float64(c.Replicas),
				Text: c.Err,
				Fields: map[string]float64{
					"commits":         float64(c.Commits),
					"rto_ms":          c.Failover.RTO.Seconds() * 1e3,
					"detect_ms":       c.Failover.Detect.Seconds() * 1e3,
					"replay_ms":       c.Failover.Replay.Seconds() * 1e3,
					"promote_ms":      c.Failover.Promote.Seconds() * 1e3,
					"promoted":        float64(c.Failover.Promoted),
					"primary_lsn":     float64(c.Failover.PrimaryLSN),
					"promoted_lsn":    float64(c.Failover.PromotedLSN),
					"acked":           float64(c.Failover.AckedCommits),
					"lost_acked":      float64(c.Failover.LostAckedCommits),
					"lost_commits":    float64(c.Failover.LostCommits),
					"pitr_target_lsn": float64(c.PITR.TargetLSN),
					"pitr_landed_lsn": float64(c.PITR.LandedLSN),
					"pitr_segments":   float64(c.PITR.Segments),
					"pitr_records":    float64(c.PITR.Records),
					"pitr_txns":       float64(c.PITR.Txns),
					"pitr_ms":         c.PITR.Elapsed.Seconds() * 1e3,
				},
			})
			if c.Err == "" {
				harness.EmitTrace(em, "failover", "asdb", sf, c.Failover.TraceTree())
			}
		}
		if err := res.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "fig8":
		res := harness.Fig8(o, nil)
		t := core.Table{Headers: []string{"query", "M=15%", "M=5%", "M=2%"}}
		for q := 1; q <= tpch.NumQueries; q++ {
			t.AddRow(fmt.Sprintf("Q%d", q),
				core.F(res.Speedup(q, 0.15)), core.F(res.Speedup(q, 0.05)), core.F(res.Speedup(q, 0.02)))
		}
		fmt.Printf("-- TPC-H SF 100: speedup vs default 25%% grant --\n%s", t.Render())
		harness.EmitTable(em, "fig8", "sf100", t)
	case "trace":
		sf := 100
		if *quick {
			sf = 10
		}
		res := harness.TraceTPCH(sf, *traceQ, o)
		fmt.Print(res.Render())
		harness.EmitTrace(em, "trace", "tpch", sf, res.Trace)
		if res.Stmt != nil {
			harness.EmitWaits(em, "trace", "tpch", sf, "query", float64(*traceQ), res.Stmt.WaitNs)
		}
	case "qstats":
		ws := workloads()
		results := harness.Sweep(o.Parallel, len(ws), func(i int) harness.QStatsResult {
			return harness.RunQStats(ws[i], harness.PaperSFs(ws[i])[0], o)
		}, o.Progress)
		for _, res := range results {
			t := harness.QueryStatsTable(res.Result.QueryStats)
			fmt.Printf("-- query stats: %s SF %d --\n%s", res.Workload, res.SF, t.Render())
			harness.EmitResult(em, "qstats", string(res.Workload), res.SF, "", 0, res.Result)
			recordProm(res.Result.Telemetry,
				[2]string{"experiment", "qstats"},
				[2]string{"workload", string(res.Workload)},
				[2]string{"sf", fmt.Sprint(res.SF)})
		}
	case "chaos":
		var specs []harness.ChaosSpec
		if *chaosSched != "" {
			for _, sp := range harness.ChaosSpecs() {
				if sp.Schedule == *chaosSched {
					specs = append(specs, sp)
				}
			}
		}
		res := harness.Chaos(servingSF(), o, specs, *servRate)
		fmt.Print(res.String())
		harness.EmitChaos(em, res)
		for _, p := range res.Points {
			recordProm(p.Telemetry,
				[2]string{"experiment", "chaos"},
				[2]string{"cell", p.Spec.Name})
		}
		if err := res.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "serving":
		res := harness.Serving(servingSF(), o, harness.Knobs{}, nil)
		fmt.Print(res.String())
		harness.EmitServing(em, res)
		for _, p := range res.Points {
			recordProm(p.Telemetry,
				[2]string{"experiment", "serving"},
				[2]string{"offered_rps", fmt.Sprintf("%g", p.OfferedRPS)})
		}
		recordProm(res.Storm.Telemetry,
			[2]string{"experiment", "serving"},
			[2]string{"offered_rps", "storm"})
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", exp)
		os.Exit(2)
	}
	fmt.Println()
}

func servingSF() int {
	if *quick {
		return 1000
	}
	return 2000
}

// runServe boots the serving front end under open-loop traffic at one
// offered load and reports the cell — the single-run counterpart of
// `dbsense run serving`.
func runServe() {
	o := opts()
	sf := servingSF()
	fmt.Printf("== serve (density=%d, measure=%.0fs, rate=%g conn/s, storm=%v) ==\n",
		o.Density, o.Measure.Seconds(), *servRate, *servStorm)
	pt := harness.ServeOnce(sf, o, harness.Knobs{}, *servRate, *servStorm)
	fmt.Printf("offered %.1f rps -> goodput %.1f rps\n", pt.OfferedRPS, pt.GoodputRPS)
	fmt.Printf("latency p50 %.3f ms, p99 %.2f ms, p999 %.2f ms\n", pt.P50Ms, pt.P99Ms, pt.P999Ms)
	fmt.Printf("shed %.1f%% (%d), degraded %d, refused %d, dropped %d, conns %d\n",
		100*pt.ShedRate, pt.Shed, pt.Degraded, pt.Refused, pt.Dropped, pt.Accepted)
	for _, m := range []struct {
		name, unit string
		v          float64
	}{
		{"goodput", "rps", pt.GoodputRPS},
		{"p50", "ms", pt.P50Ms},
		{"p99", "ms", pt.P99Ms},
		{"p999", "ms", pt.P999Ms},
		{"shed_rate", "frac", pt.ShedRate},
		{"degraded", "requests", float64(pt.Degraded)},
	} {
		em.Emit(harness.Record{
			Record: "point", Experiment: "serve", Workload: "asdb", SF: sf,
			Metric: m.name, X: pt.OfferedRPS, Value: m.v, Unit: m.unit,
		})
	}
	harness.EmitTelemetry(em, "serve", "asdb", sf, fmt.Sprintf("rate=%g", *servRate), pt.Telemetry)
	recordProm(pt.Telemetry,
		[2]string{"experiment", "serve"},
		[2]string{"rate", fmt.Sprintf("%g", *servRate)})
}

// printCurves renders a family of curves via the harness report helper.
func printCurves(title string, bySF map[int]core.Curve, knob string) {
	fmt.Print(harness.RenderFamily(title, harness.CurveFamily(bySF), knob))
}

// resiliencePoints picks the workload/SF pairs the resilience sweep runs:
// TPC-H and TPC-E by default, or a single -workload override at its
// smallest paper scale factor.
func resiliencePoints() []struct {
	w  harness.Workload
	sf int
} {
	type pair = struct {
		w  harness.Workload
		sf int
	}
	if *workload != "" {
		w := harness.Workload(*workload)
		return []pair{{w, harness.PaperSFs(w)[0]}}
	}
	tpceSF := 5000
	if *quick {
		tpceSF = 2000
	}
	return []pair{{harness.WTpch, 100}, {harness.WTpce, tpceSF}}
}

func coreSteps() []int {
	if *quick {
		return []int{2, 8, 16, 32}
	}
	return harness.CoreSteps
}

func llcSteps() []int {
	if *quick {
		return []int{2, 8, 20, 40}
	}
	return harness.LLCSteps
}
