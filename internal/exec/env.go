// Package exec implements the engine's query executor: physical plan
// trees evaluated by parallel worker procs over the costed access
// methods. Execution is real — scans produce rows, joins match keys,
// aggregates compute values — while every operator charges nominal CPU,
// cache, and I/O costs to the simulated machine.
//
// Parallel plans run as staged dataflow: each blocking boundary
// materializes, and within a stage DOP worker procs (each bound to one
// logical core) process static partitions. Exchanges charge per-row
// redistribution costs. This models SQL Server's batch/row parallel
// execution at the fidelity the paper measures (throughput, core
// utilization, memory-grant pressure), trading away intra-pipeline
// overlap; DESIGN.md discusses the simplification.
package exec

import (
	"repro/internal/access"
	"repro/internal/buffer"
	"repro/internal/hw"
	"repro/internal/iodev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Row is one tuple.
type Row = []int64

// Env is everything a query needs to execute.
type Env struct {
	Sim  *sim.Sim
	M    *hw.Machine
	BP   *buffer.Pool
	Dev  *iodev.Device
	Ctr  *metrics.Counters
	Cost *access.CostModel
	RNG  *sim.RNG

	// Cores are the logical cores this query's workers may use; Dop caps
	// how many run concurrently (the effective degree of parallelism).
	Cores []int
	Dop   int

	// Grant is the query's workspace memory grant in nominal bytes.
	Grant *Grant

	// TempRegion gives tempdb spills a cache identity.
	TempRegion uint64

	// MetaBase is the shared engine-metadata region (access.CostModel).
	MetaBase uint64

	// Home is the logical core the session (coordinator) runs on; serial
	// stages and coordinator work execute there, so concurrent serial
	// queries from different sessions spread across the cpuset instead of
	// piling onto one scheduler.
	Home int

	// Deadline is the statement deadline (0 = none). Operators check it
	// at node boundaries and between partitions; once it passes, the
	// query stops doing work and reports QueryStats.Killed.
	Deadline sim.Time

	// Trace, when non-nil, records a span per plan node. The executor
	// checks it once per node, so untraced queries pay nothing.
	Trace *trace.Trace

	killed bool  // deadline expired mid-execution
	ioErr  error // first unrecoverable device error from any worker
}

// expired reports whether the deadline has passed, latching the killed
// flag on first expiry so every subsequent check short-circuits.
func (e *Env) expired(now sim.Time) bool {
	if e.killed {
		return true
	}
	if e.Deadline > 0 && now >= e.Deadline {
		e.killed = true
		return true
	}
	return false
}

// noteFail records the first unrecoverable failure seen by any worker.
func (e *Env) noteFail(err error) {
	if e.ioErr == nil {
		e.ioErr = err
	}
}

// home returns the coordinator core, defaulting to the first allowed.
// A Home outside the cpuset (e.g. assigned before AllowN shrank the set)
// must not be used: serial stages would otherwise run on disallowed
// cores, distorting core-allocation experiments.
func (e *Env) home() int {
	if e.Home > 0 && containsInt(e.Cores, e.Home) {
		return e.Home
	}
	return e.Cores[0]
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// EffectiveDop returns the number of parallel workers a stage uses.
func (e *Env) EffectiveDop() int {
	d := e.Dop
	if d < 1 {
		d = 1
	}
	if d > len(e.Cores) {
		d = len(e.Cores)
	}
	return d
}

// newCtx builds a worker context bound to a core.
func (e *Env) newCtx(p *sim.Proc, core int) *access.Ctx {
	return &access.Ctx{
		P:        p,
		Core:     core,
		M:        e.M,
		BP:       e.BP,
		Ctr:      e.Ctr,
		Cost:     e.Cost,
		RNG:      e.RNG.Fork(),
		MetaBase: e.MetaBase,
	}
}

// parallel runs f over nParts partitions using the stage's DOP. Worker w
// processes partitions w, w+dop, w+2*dop, ... With DOP 1 the stage runs
// inline on the coordinator's proc (a serial plan has no exchange or
// worker startup cost). The coordinator blocks until the stage finishes.
func (e *Env) parallel(p *sim.Proc, nParts int, f func(ctx *access.Ctx, part int)) {
	dop := e.EffectiveDop()
	if dop > nParts {
		dop = nParts
	}
	if dop <= 1 {
		ctx := e.newCtx(p, e.home())
		for part := 0; part < nParts; part++ {
			if e.expired(p.Now()) {
				break
			}
			f(ctx, part)
		}
		ctx.Flush()
		if err := p.TakeFail(); err != nil {
			e.noteFail(err)
		}
		return
	}
	remaining := dop
	var done sim.WaitQueue
	attr := p.Attr() // workers charge the coordinator's statement
	for w := 0; w < dop; w++ {
		w := w
		core := e.Cores[w%len(e.Cores)]
		e.Sim.Spawn("qworker", func(wp *sim.Proc) {
			wp.SetAttr(attr)
			ctx := e.newCtx(wp, core)
			// Thread startup / exchange setup cost.
			ctx.Stall(e.Cost.WorkerStartNs)
			for part := w; part < nParts; part += dop {
				if e.expired(wp.Now()) {
					break
				}
				f(ctx, part)
			}
			ctx.Flush()
			if err := wp.TakeFail(); err != nil {
				e.noteFail(err)
			}
			remaining--
			if remaining == 0 {
				done.WakeAll(e.Sim)
			}
		})
	}
	for remaining > 0 {
		done.Wait(p)
	}
}

// QueryStats summarizes one query execution.
type QueryStats struct {
	OutRows    int
	Batches    int // column batches emitted across all operators
	Spills     int
	SpillBytes int64
	GrantBytes int64
	UsedBytes  int64
	Killed     bool // statement deadline expired mid-execution
}

// Grant is a query's workspace memory grant (nominal bytes). Memory-
// consuming operators Reserve against it; over-reservation spills.
type Grant struct {
	Bytes int64
	used  int64
}

// Reserve takes want bytes from the grant and returns how many bytes did
// NOT fit (the operator's spill volume).
func (g *Grant) Reserve(want int64) (overflow int64) {
	if g == nil || g.Bytes <= 0 {
		return 0 // unlimited
	}
	avail := g.Bytes - g.used
	if avail < 0 {
		avail = 0
	}
	if want <= avail {
		g.used += want
		return 0
	}
	g.used = g.Bytes
	return want - avail
}

// Release returns bytes to the grant (operator teardown).
func (g *Grant) Release(bytes int64) {
	if g == nil {
		return
	}
	g.used -= bytes
	if g.used < 0 {
		g.used = 0
	}
}

// Used returns the current reservation.
func (g *Grant) Used() int64 {
	if g == nil {
		return 0
	}
	return g.used
}
