// Package harness defines one experiment per table and figure in the
// paper's evaluation, wired to the engine, workloads, and the core
// sensitivity library. Each experiment point boots a fresh simulated
// server, applies the resource knobs (cpuset cores, CAT LLC mask, blkio
// bandwidth limits, MAXDOP, grant fraction), drives the workload through
// a warmup, and measures over a fixed window of simulated time.
package harness

import (
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload/asdb"
	"repro/internal/workload/htap"
	"repro/internal/workload/tpce"
	"repro/internal/workload/tpch"
)

// Knobs are the resource-allocation settings an experiment varies.
type Knobs struct {
	Cores          int     // logical cores in the cpuset (0 = all 32)
	LLCMB          int     // total CAT allocation in MB (0 = full 40)
	ReadLimitMBps  float64 // blkio read limit (0 = unlimited)
	WriteLimitMBps float64 // blkio write limit (0 = unlimited)
	MaxDOP         int     // resource-governor DOP cap (0 = cores)
	GrantPct       float64 // per-query memory grant fraction (0 = default 0.25)

	// Resilience knobs (the fault-injection experiments). All zero values
	// leave a point identical to a baseline run.
	Faults      *fault.Config      // fault injection (nil or disabled = none)
	StmtTimeout sim.Duration       // statement deadline (0 = none)
	Retry       engine.RetryPolicy // driver retry policy (zero = disabled)

	// Trace enables per-operator query tracing (engine.Config.Trace).
	Trace bool
}

// Options control scale-down density and measurement windows, so the
// same experiments run tiny in tests and denser in benchmarks.
type Options struct {
	// Density scales generated rows: tpch lineitem rows per SF,
	// tpce trades per customer, asdb rows per SF unit.
	Density int
	Warmup  sim.Duration
	Measure sim.Duration
	Users   int // OLTP users/clients override (0 = paper's counts)
	Streams int // TPC-H concurrent streams (0 = paper's 3)
	Seed    int64
	// MinQueries extends the measurement window (in Measure-sized hops,
	// up to 8) until at least this many queries complete — long-running
	// analytical points would otherwise quantize QPS badly.
	MinQueries int64
	// Parallel is how many worker goroutines sweeps fan experiment
	// points across (0 = GOMAXPROCS). Results are bit-identical at any
	// setting; see Sweep.
	Parallel int
	// Progress, when non-nil, receives per-point completion updates
	// during sweeps.
	Progress Progress

	// Telemetry arms the engine-wide metric registry on every point
	// (engine.Config.Telemetry): each Result carries a sampled time-series
	// snapshot and sweep emitters export it as series records. Off, runs
	// are bit-identical to a build without telemetry.
	Telemetry bool
}

// DefaultOptions returns bench-scale settings.
func DefaultOptions() Options {
	return Options{
		Density:    200,
		Warmup:     2 * sim.Second,
		Measure:    10 * sim.Second,
		Seed:       1,
		MinQueries: 12,
	}
}

// TestOptions returns tiny settings for unit tests.
func TestOptions() Options {
	return Options{
		Density: 50,
		Warmup:  sim.Second,
		Measure: 3 * sim.Second,
		Users:   16,
		Streams: 2,
		Seed:    1,
	}
}

// Result is one experiment point's measurements.
type Result struct {
	Throughput float64 // queries/s (DSS), transactions/s (OLTP)
	OLTPTps    float64 // HTAP: transactional component
	DSSQps     float64 // HTAP: analytical component

	MPKI         float64
	IPC          float64
	SSDReadMBps  float64
	SSDWriteMBps float64
	DRAMMBps     float64

	ElapsedSecs float64 // actual measurement window (may exceed Measure)

	ReadBWSeries  []float64 // per-second SSD read MB/s (CDF material)
	WriteBWSeries []float64
	DRAMBWSeries  []float64

	WaitNs [metrics.NumWaitClasses]int64

	Delta metrics.Counters

	// QueryStats is the server's cumulative per-query-template statistics
	// at the end of the run (sorted by template label).
	QueryStats []metrics.QueryStatRow

	// Telemetry is the registry snapshot at the end of the run (nil
	// unless Options.Telemetry armed it).
	Telemetry *telemetry.Snapshot
}

// server builds and configures a server for the knobs.
func newServer(opt Options, k Knobs) *engine.Server {
	cfg := engine.DefaultConfig()
	cfg.Seed = opt.Seed
	cfg.MaxDOP = k.MaxDOP
	if k.GrantPct > 0 {
		cfg.GrantFrac = k.GrantPct
	}
	cfg.StmtTimeout = k.StmtTimeout
	cfg.Retry = k.Retry
	cfg.Trace = k.Trace
	cfg.Telemetry = opt.Telemetry
	srv := engine.NewServer(cfg)
	if k.Cores > 0 {
		srv.CPUs.AllowN(k.Cores)
	}
	if k.LLCMB > 0 {
		srv.M.SetCATMask(srv.M.CATMaskForMB(k.LLCMB))
	}
	if k.ReadLimitMBps > 0 {
		srv.BlkIO.SetReadLimit(k.ReadLimitMBps)
	}
	if k.WriteLimitMBps > 0 {
		srv.BlkIO.SetWriteLimit(k.WriteLimitMBps)
	}
	if k.Faults != nil && k.Faults.Enabled() {
		inj := fault.New(srv.Sim, *k.Faults, fault.Targets{
			Dev: srv.Dev, Log: srv.Log, BP: srv.BP, CPUs: srv.CPUs,
			Grants: srv, Ctr: srv.Ctr,
		})
		inj.Start()
		srv.AddStopHook(inj.Stop)
	}
	return srv
}

// driverHorizon is the furthest point drivers may run to: the base
// window plus every adaptive extension measure() might take. Drivers
// also stop as soon as the server is stopped.
func driverHorizon(opt Options) sim.Time {
	return sim.Time(opt.Warmup + 10*opt.Measure)
}

// measure runs the simulation through warmup and measurement, returning
// the measurement-window counter delta and bandwidth series.
func measure(srv *engine.Server, opt Options) Result {
	srv.Sim.Run(sim.Time(opt.Warmup))
	before := *srv.Ctr
	samplesBefore := len(srv.Smp.Samples)
	end := sim.Time(opt.Warmup + opt.Measure)
	srv.Sim.Run(end)
	delta := srv.Ctr.Sub(before)
	// Analytical points with few completions extend the window so QPS
	// does not quantize to multiples of 1/Measure.
	for hop := 0; opt.MinQueries > 0 &&
		delta.QueriesDone < opt.MinQueries && hop < 8; hop++ {
		end += sim.Time(opt.Measure)
		srv.Sim.Run(end)
		delta = srv.Ctr.Sub(before)
	}
	srv.Stop()
	srv.Sim.Run(end + sim.Time(600*sim.Second))

	secs := (sim.Duration(end) - opt.Warmup).Seconds()
	r := Result{Delta: delta, ElapsedSecs: secs}
	r.MPKI = delta.MPKI()
	if delta.Cycles > 0 {
		r.IPC = float64(delta.Instructions) / float64(delta.Cycles)
	}
	r.SSDReadMBps = float64(delta.SSDReadBytes) / 1e6 / secs
	r.SSDWriteMBps = float64(delta.SSDWriteBytes) / 1e6 / secs
	r.DRAMMBps = float64(delta.DRAMReadBytes+delta.DRAMWriteBytes) / 1e6 / secs
	r.WaitNs = delta.WaitNs
	r.QueryStats = srv.QStats.Snapshot()
	r.Telemetry = srv.Tel.Snapshot()
	for _, s := range srv.Smp.Samples[samplesBefore:] {
		if s.At > end {
			break
		}
		iv := s.Dur.Seconds()
		if iv <= 0 {
			iv = srv.Smp.Interval.Seconds()
		}
		r.ReadBWSeries = append(r.ReadBWSeries, float64(s.Delta.SSDReadBytes)/1e6/iv)
		r.WriteBWSeries = append(r.WriteBWSeries, float64(s.Delta.SSDWriteBytes)/1e6/iv)
		r.DRAMBWSeries = append(r.DRAMBWSeries, float64(s.Delta.DRAMReadBytes+s.Delta.DRAMWriteBytes)/1e6/iv)
	}
	return r
}

// RunTPCH measures TPC-H stream throughput (QPS) at one knob setting.
func RunTPCH(sf int, opt Options, k Knobs) Result {
	d := tpch.Build(tpch.Config{SF: sf, ActualLineitemPerSF: opt.Density, Seed: opt.Seed})
	srv := newServer(opt, k)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	streams := opt.Streams
	if streams <= 0 {
		streams = 3
	}
	var st tpch.StreamStats
	until := driverHorizon(opt)
	tpch.RunStreams(srv, d, streams, until, &st)
	r := measure(srv, opt)
	r.Throughput = float64(r.Delta.QueriesDone) / r.ElapsedSecs
	return r
}

// RunTPCE measures TPC-E throughput (TPS) at one knob setting.
func RunTPCE(customers int, opt Options, k Knobs) Result {
	opt.MinQueries = 0
	density := opt.Density / 25
	if density < 2 {
		density = 2
	}
	d := tpce.Build(tpce.Config{Customers: customers, ActualTradesPerCustomer: density, Seed: opt.Seed})
	srv := newServer(opt, k)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	users := opt.Users
	if users <= 0 {
		users = 100
	}
	var st tpce.Stats
	until := driverHorizon(opt)
	tpce.RunUsers(srv, d, users, tpce.DefaultMix(), until, &st)
	r := measure(srv, opt)
	r.Throughput = float64(r.Delta.TxnCommits) / r.ElapsedSecs
	return r
}

// TPCEWaits runs TPC-E and returns the full wait-class breakdown plus
// per-object lock waits, for Table 3.
func TPCEWaits(customers int, opt Options, k Knobs) (Result, map[int]int64) {
	opt.MinQueries = 0
	density := opt.Density / 25
	if density < 2 {
		density = 2
	}
	d := tpce.Build(tpce.Config{Customers: customers, ActualTradesPerCustomer: density, Seed: opt.Seed})
	srv := newServer(opt, k)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	users := opt.Users
	if users <= 0 {
		users = 100
	}
	var st tpce.Stats
	until := driverHorizon(opt)
	tpce.RunUsers(srv, d, users, tpce.DefaultMix(), until, &st)
	r := measure(srv, opt)
	r.Throughput = float64(r.Delta.TxnCommits) / r.ElapsedSecs
	return r, srv.Locks.WaitNsByObj
}

// RunASDB measures ASDB throughput (TPS) at one knob setting.
func RunASDB(sf int, opt Options, k Knobs) Result {
	opt.MinQueries = 0
	density := opt.Density / 20
	if density < 2 {
		density = 2
	}
	d := asdb.Build(asdb.Config{SF: sf, ActualRowsPerSF: density, Seed: opt.Seed})
	srv := newServer(opt, k)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	clients := opt.Users
	if clients <= 0 {
		clients = 128
	}
	var st asdb.Stats
	until := driverHorizon(opt)
	asdb.RunClients(srv, d, clients, asdb.DefaultMix(), until, &st)
	r := measure(srv, opt)
	r.Throughput = float64(r.Delta.TxnCommits) / r.ElapsedSecs
	return r
}

// buildASDB and buildTPCE expose raw database construction for Table 2.
func buildASDB(sf, density int, seed int64) *engine.Database {
	return asdb.Build(asdb.Config{SF: sf, ActualRowsPerSF: density, Seed: seed}).DB
}

func buildTPCE(customers, density int, seed int64, withCSI bool) *engine.Database {
	return tpce.Build(tpce.Config{Customers: customers, ActualTradesPerCustomer: density, Seed: seed, WithCSI: withCSI}).DB
}

// RunHTAP measures the hybrid workload: TPS for the 99-user transactional
// component and QPS for the single analytical user.
func RunHTAP(customers int, opt Options, k Knobs) Result {
	density := opt.Density / 25
	if density < 2 {
		density = 2
	}
	d := htap.Build(htap.Config{Customers: customers, ActualTradesPerCustomer: density, Seed: opt.Seed})
	srv := newServer(opt, k)
	srv.AttachDB(d.DB)
	srv.WarmBufferPool()
	srv.Start()
	users := opt.Users
	if users <= 0 {
		users = 99
	}
	var st htap.Stats
	until := driverHorizon(opt)
	htap.Run(srv, d, users, until, &st)
	r := measure(srv, opt)
	r.OLTPTps = float64(r.Delta.TxnCommits) / r.ElapsedSecs
	r.DSSQps = float64(r.Delta.QueriesDone) / r.ElapsedSecs
	r.Throughput = r.OLTPTps + r.DSSQps
	return r
}
