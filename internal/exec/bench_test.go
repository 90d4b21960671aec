package exec

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// benchTable builds an (okey, ckey, amount) table with `rows` actual
// rows at K=5, large enough that executor per-row work dominates setup.
func benchTable(te *testEnv, rows int64) *storage.Table {
	sch := storage.NewSchema("bench_orders",
		storage.Column{Name: "okey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "ckey", Type: storage.TInt, Width: 8},
		storage.Column{Name: "amount", Type: storage.TInt, Width: 8},
	)
	t := storage.NewTable(1, sch, 5)
	for i := int64(0); i < rows; i++ {
		t.AppendLoad([]int64{i, i % 97, (i * 13) % 1000})
	}
	t.Data.Region = te.env.M.ReserveRegion(t.NominalDataBytes())
	te.env.BP.Register(t.Data)
	return t
}

// benchPlan is the headline scan→filter→hash-agg shape: the pattern the
// vectorized engine is built for.
func benchPlan(tab *storage.Table) *Node {
	return &Node{
		Kind:   KHashAgg,
		Left:   scanNode(tab, []int{1, 2}, func(r Row) bool { return r[1] < 400 }, 1, true),
		Groups: []int{0},
		Aggs:   []AggSpec{{Kind: AggSum, Col: 1}, {Kind: AggCount}},
		Weight: tab.K, Parallel: true,
	}
}

const benchRows = 20_000

// runBench executes the plan once and returns the simulated elapsed
// time, which is deterministic across runs and machines.
func runBench(te *testEnv, root *Node) (simNs float64, outRows int) {
	var rows []Row
	var done, start = te.sm.Now(), te.sm.Now()
	te.sm.Spawn("q", func(p *sim.Proc) {
		rows, _ = Run(p, te.env, root)
		done = te.sm.Now()
	})
	te.sm.Run(start + sim.Time(3600*sim.Second))
	return float64(done - start), len(rows)
}

// BenchmarkExecEngines times the executor on benchPlan. ns/op and B/op
// are wall-clock (machine-dependent); sim_ms is the simulated query
// latency and is fully deterministic. The sub-benchmark keeps its name,
// ExecEngines/vec, so sim_ms stays comparable across BENCH snapshots.
func BenchmarkExecEngines(b *testing.B) {
	b.Run("vec", func(b *testing.B) {
		b.ReportAllocs()
		var simMs float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			te := newTestEnv(4)
			root := benchPlan(benchTable(te, benchRows))
			b.StartTimer()
			ns, n := runBench(te, root)
			if n == 0 {
				b.Fatal("no output rows")
			}
			simMs = ns / 1e6
		}
		b.ReportMetric(simMs, "sim_ms")
	})
}

// execAllocBudget caps the host allocations of one benchPlan run: 1.1x
// the 850 measured when the budget was set (Go 1.24, with and without
// -race). The headroom is meant for allocation differences between Go
// releases; the count under go.mod's Go 1.22 was not measured.
const execAllocBudget = 935

// TestExecAllocBudget holds the executor to execAllocBudget on
// benchPlan; the environments are built outside the measured runs.
func TestExecAllocBudget(t *testing.T) {
	const runs = 5
	envs := make([]*testEnv, runs+1) // AllocsPerRun adds a warm-up run
	roots := make([]*Node, runs+1)
	for i := range envs {
		envs[i] = newTestEnv(4)
		roots[i] = benchPlan(benchTable(envs[i], benchRows))
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		if _, n := runBench(envs[i], roots[i]); n == 0 {
			t.Fatal("no output rows")
		}
		i++
	})
	if avg > execAllocBudget {
		t.Fatalf("benchPlan run allocates %.0f objects, budget %d", avg, execAllocBudget)
	}
	t.Logf("benchPlan run allocates %.0f objects (budget %d)", avg, execAllocBudget)
}
