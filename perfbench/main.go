// Command perfbench is the repository's host-performance benchmark. It
// runs one workload (olap-scan, oltp-rw or serve-storm) through the
// public workload, engine and serve entry points in this process,
// checks the simulated outputs against a digest, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced
// run (--trace 1). See README.md in this directory.
//
//	bash perfbench/run.sh --workload oltp-rw --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/sim"
)

// procs is the fixed GOMAXPROCS. The simulation runs one goroutine at a
// time, handing off over channels; with one P every handoff stays on
// one thread, which ran 15-20% faster than two Ps on a 2-CPU host.
const procs = 1

// minIters is the fewest timed repeats of an untraced run; metrics are
// medians over the repeats, and the repeats' digests must agree.
const minIters = 2

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median. Set-ups beyond the timed repeats' own are discarded.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "olap-scan, oltp-rw or serve-storm")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "host seconds to keep repeating the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload olap-scan|oltp-rw|serve-storm [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	runtime.GOMAXPROCS(procs)

	budget := time.Duration(*seconds) * time.Second
	var res result
	var iters []iteration
	if *trace == 0 {
		iters = repeat(w, *seed, false, budget, minIters)
		setups := make([]float64, 0, setupRepeats)
		for _, it := range iters {
			setups = append(setups, it.setupS)
		}
		for len(setups) < setupRepeats {
			setups = append(setups, setupOnly(w, *seed))
		}
		res.Metrics = endToEnd(iters, median(setups))
	} else {
		// Untraced repeats first: the baseline of trace.overhead_frac and
		// of the traced-vs-untraced digest check.
		plain := repeat(w, *seed, false, budget/2, 1)
		traced := repeat(w, *seed, true, budget/2, 1)
		var err error
		if res.Metrics, err = perLayer(plain, traced); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		iters = append(plain, traced...)
	}

	var digests []string
	for _, it := range iters {
		digests = append(digests, it.digest)
		res.Attempted += it.out.attempted
	}
	problem := checkDigests(w.name, *seed, digests)
	if problem == "" {
		problem = sanity(w.name, iters[0].out)
	}
	res.Correct = problem == ""
	if !res.Correct {
		// A wrong output discredits every operation of the run.
		res.Failed = res.Attempted
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", w.name, *seed, problem)
	}

	info := map[string]any{
		"workload": w.name, "seed": *seed, "trace": *trace, "iterations": len(iters),
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "godebug": os.Getenv("GODEBUG"), "commit": commit(),
		"digest": digests[0], "spans": iters[len(iters)-1].spans,
	}
	printJSON(map[string]any{"info": info})
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps, slices, strings and numbers
	}
	fmt.Println(string(b))
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sanity checks invariants every correct run of the workload has.
func sanity(name string, o outcome) string {
	switch {
	case o.attempted == 0 || o.tput <= 0:
		return "no operation finished in the measure window"
	case name == "serve-storm" && o.srvCtr.Accepted == 0:
		return "the front end accepted no connection"
	}
	return ""
}

// iteration is one set-up plus one simulated run.
type iteration struct {
	setupS, wallS   float64
	allocB, mallocs uint64
	gcCycles        uint32
	out             outcome
	digest          string
	spans           []span
	profile         []byte         // traced only: CPU profile of the run
	phases          []sim.ProfStat // traced only: phase-timer deltas
}

// repeat runs iterations until budget has passed and at least least ran.
func repeat(w workload, seed int64, traced bool, budget time.Duration, least int) []iteration {
	var out []iteration
	start := time.Now()
	for len(out) < least || time.Since(start) < budget {
		out = append(out, once(w, seed, traced))
	}
	return out
}

// setupOnly times one set-up of the workload, without running it.
func setupOnly(w workload, seed int64) float64 {
	runtime.GC()
	rec := newRecorder()
	rec.span("setup", func() { w.setup(seed, rec) })
	return rec.total("setup").Seconds()
}

func once(w workload, seed int64, traced bool) iteration {
	// Start each repeat from a collected heap so one repeat's garbage
	// is not charged to the next.
	runtime.GC()
	rec := newRecorder()
	var runFn func(*recorder) outcome
	rec.span("setup", func() { runFn = w.setup(seed, rec) })

	var it iteration
	var prof bytes.Buffer
	var before []sim.ProfStat
	if traced {
		sim.EnableProfiling()
		before = sim.ProfSnapshot()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(fmt.Sprintf("cpu profile: %v", err)) // only fails if one is already running
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec.span("run", func() { it.out = runFn(rec) })
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
		sim.DisableProfiling()
		it.profile = prof.Bytes()
		after := sim.ProfSnapshot()
		for i := range after {
			after[i].WallNs -= before[i].WallNs
			after[i].Calls -= before[i].Calls
		}
		it.phases = after
	}
	it.setupS = rec.total("setup").Seconds()
	it.wallS = rec.total("run").Seconds()
	it.allocB = m1.TotalAlloc - m0.TotalAlloc
	it.mallocs = m1.Mallocs - m0.Mallocs
	it.gcCycles = m1.NumGC - m0.NumGC
	it.digest = digest(it.out)
	it.out.qstats = nil // only the digest needs them
	it.spans = rec.spans
	return it
}

// median of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianOf(iters []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(iters))
	for i, it := range iters {
		xs[i] = f(it)
	}
	return median(xs)
}

// maxRSSMB is the process's peak resident set, in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd is the untraced metrics: host medians over the repeats, and
// the simulated outputs, which are identical in every repeat.
func endToEnd(iters []iteration, setupS float64) map[string]metric {
	o := iters[0].out
	return map[string]metric{
		"wall_s":     {medianOf(iters, func(it iteration) float64 { return it.wallS }), "s"},
		"setup_s":    {setupS, "s"},
		"alloc_mb":   {medianOf(iters, func(it iteration) float64 { return float64(it.allocB) / 1e6 }), "MB"},
		"allocs_m":   {medianOf(iters, func(it iteration) float64 { return float64(it.mallocs) / 1e6 }), "M"},
		"max_rss_mb": {maxRSSMB(), "MB"},
		"sim_tput":   {o.tput, "1/s"},
		"sim_p50_ms": {o.p50ms, "ms"},
		"sim_p99_ms": {o.p99ms, "ms"},
	}
}
