package main

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
	"repro/internal/workload/openloop"
	"repro/internal/workload/tpch"
)

// Every workload runs at the default full allocation: 32 cores, the
// whole 40 MB LLC, no blkio limits (engine.DefaultConfig), with the
// generated-row density of harness.DefaultOptions.
const (
	tpchLineitemPerSF = 200 // harness density 200
	asdbRowsPerSF     = 10  // harness density 200 / 20
)

// opLog records operations as they finish, on the simulated clock: it
// folds every one into the output digest and keeps the latencies of the
// successful ones that finish in the window. (Keeping every operation
// instead held ~20 MB more live heap on oltp-rw, and the peak RSS then
// swung with where the collector caught the log's growth.)
type opLog struct {
	w         window
	n, failed int64          // operations finished in the window, failed among them
	good      []sim.Duration // latencies of the successful ones
	last      sim.Time       // latest completion, in the window or not
	sum       uint64         // FNV-1a over each operation's (end, latency, success) words
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newOpLog(w window) *opLog { return &opLog{w: w, sum: fnvOffset} }

func (l *opLog) add(end sim.Time, lat sim.Duration, ok bool) {
	var okWord uint64
	if ok {
		okWord = 1
	}
	for _, v := range [3]uint64{uint64(end), uint64(lat), okWord} {
		l.sum = (l.sum ^ v) * fnvPrime
	}
	if end > l.last {
		l.last = end
	}
	if !l.w.in(end) {
		return
	}
	l.n++
	if !ok {
		l.failed++
		return
	}
	l.good = append(l.good, lat)
}

// percentiles returns the median and 99th percentile, in simulated ms,
// of the successful operations' latencies in the window.
func (l *opLog) percentiles() (p50, p99 float64) {
	sort.Slice(l.good, func(i, j int) bool { return l.good[i] < l.good[j] })
	return pctMs(l.good, 0.50), pctMs(l.good, 0.99)
}

// outcome is one simulated run's model outputs: the end-to-end sim
// metrics, the public counters the per-layer metrics read, and the
// inputs of the output digest.
type outcome struct {
	// attempted counts the operations finished in the measure window
	// (serve-storm: every planned request), failed those without success.
	attempted, failed int64

	tput, p50ms, p99ms float64

	ctr       metrics.Counters // cumulative at the end of the run
	flushes   int64            // wal.Log.Flushes
	walBytes  int64            // wal.Log.AppendedLSN
	evictions int64            // buffer.Pool.Evictions
	srvCtr    serve.Counters   // serve-storm only

	opSum  uint64                 // opLog.sum (digest input)
	qstats []metrics.QueryStatRow // per-template query stats (digest input)
}

// workload is one benchmark workload. setup generates the inputs from
// the seed and builds the server (the set-up spans); the returned
// function drives the simulated run (the warmup, measure and drain
// spans).
type workload struct {
	name  string
	setup func(seed int64, rec *recorder) func(rec *recorder) outcome
}

var workloads = []workload{
	{"olap-scan", setupOLAPScan},
	{"oltp-rw", setupOLTPRW},
	{"serve-storm", setupServeStorm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newServer is the set-up every workload shares: engine.NewServer at the
// default configuration, AttachDB and WarmBufferPool, each in its span.
func newServer(seed int64, db *engine.Database, rec *recorder) *engine.Server {
	cfg := engine.DefaultConfig()
	cfg.Seed = seed
	var srv *engine.Server
	rec.span("new_server", func() { srv = engine.NewServer(cfg) })
	rec.span("attach_db", func() { srv.AttachDB(db) })
	rec.span("warm_buffer_pool", srv.WarmBufferPool)
	return srv
}

// window is a run's simulated schedule: warm up, measure, then stop the
// server and let in-flight work drain.
type window struct{ warmup, measure sim.Duration }

func (w window) end() sim.Time { return sim.Time(w.warmup + w.measure) }

// in reports whether a completion at t falls in the measure window.
func (w window) in(t sim.Time) bool { return t > sim.Time(w.warmup) && t <= w.end() }

// drive runs the warmup and measure spans and returns the counters at
// the start of the measure window.
func (w window) drive(srv *engine.Server, rec *recorder) metrics.Counters {
	rec.span("warmup", func() { srv.Sim.Run(sim.Time(w.warmup)) })
	before := *srv.Ctr
	rec.span("measure", func() { srv.Sim.Run(w.end()) })
	return before
}

// drain stops the server and runs the simulation until every proc has
// observed the stop.
func drain(srv *engine.Server, rec *recorder) {
	rec.span("drain", func() {
		srv.Stop()
		srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
	})
}

// pctMs is the nearest-rank percentile of sorted latencies, in ms.
func pctMs(sorted []sim.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))]) / float64(sim.Millisecond)
}

// finish fills o from the operation log and the server's counters.
func finish(srv *engine.Server, ops *opLog, o *outcome) {
	o.attempted, o.failed = ops.n, ops.failed
	o.p50ms, o.p99ms = ops.percentiles()
	o.opSum = ops.sum
	o.ctr = *srv.Ctr
	o.flushes = srv.Log.Flushes()
	o.walBytes = srv.Log.AppendedLSN()
	o.evictions = srv.BP.Evictions()
	o.qstats = srv.QStats.Snapshot()
}

// olap-scan: TPC-H SF 100 under three closed-loop query streams on the
// vectorized executor. Every stream runs the same scan-heavy templates
// once, in the same order, and the run measures all of them: every seed
// runs the same queries, so the sim metrics compare like with like, and
// the seed drives the data and the substitution parameters. The streams
// stay in step, so which queries overlap in time, and with them the
// peak memory, is the same for every seed: with per-stream rotated
// orders the overlap followed the seed, and the peak RSS moved between
// 58 and 80 MB. There is no warmup, since WarmBufferPool leaves the pool
// warm. Host time goes mostly to LLC simulation of the scans, with few
// proc resumes.
const (
	olapSF      = 100
	olapStreams = 3
)

// olapTemplates are the TPC-H templates each stream runs, in order.
var olapTemplates = []int{1, 6, 12, 14, 15, 19, 20}

func setupOLAPScan(seed int64, rec *recorder) func(*recorder) outcome {
	var d *tpch.Dataset
	rec.span("tpch_build", func() {
		d = tpch.Build(tpch.Config{SF: olapSF, ActualLineitemPerSF: tpchLineitemPerSF, Seed: seed})
	})
	srv := newServer(seed, d.DB, rec)
	return func(rec *recorder) outcome {
		// The window is the whole run: every query of every stream.
		ops := newOpLog(window{measure: 1 << 62})
		done := 0
		srv.Start()
		for s := 0; s < olapStreams; s++ {
			srv.Sim.Spawn("tpch-stream", func(p *sim.Proc) {
				sess := srv.Open(p)
				defer sess.Close()
				g := srv.Sim.RNG().Fork()
				for _, q := range olapTemplates {
					t0 := p.Now()
					res := sess.Query(d.Query(q, g), engine.QueryOptions{G: g})
					ops.add(p.Now(), sim.Duration(p.Now()-t0), res.Err == nil)
				}
				done++
			})
		}
		rec.span("measure", func() {
			for done < olapStreams {
				srv.Sim.Run(srv.Sim.Now() + sim.Time(sim.Second))
			}
		})
		drain(srv, rec)

		var o outcome
		finish(srv, ops, &o)
		// Queries per simulated second, from the start of the streams to
		// the last completion.
		o.tput = float64(o.attempted-o.failed) / sim.Duration(ops.last).Seconds()
		return o
	}
}

// oltp-rw: ASDB SF 6000 under a closed loop of 24 clients running the
// default 60% read / 40% write mix. The writes exercise WAL group
// commit, locking, transactions, dirty pages and B-tree maintenance;
// host time goes mostly to proc handoffs and allocation.
const (
	oltpSF      = 6000
	oltpClients = 24
)

var oltpWindow = window{warmup: sim.Second, measure: 2 * sim.Second}

// asdbClient mirrors asdb.RunClients's client, adding per-transaction
// latency: the same statements drawn in the same order from the same
// RNG streams, so the simulated run is the one RunClients drives.
type asdbClient struct {
	d    *asdb.Dataset
	sess *engine.Session
	g    *sim.RNG
	zBig *sim.Zipf
}

type asdbTxn struct {
	name string // QueryStats template label
	w    float64
	fn   func(*asdbClient) bool
}

func asdbTxns(mix asdb.Mix) []asdbTxn {
	return []asdbTxn{
		{"asdb.PointRead", mix.PointRead, func(c *asdbClient) bool { return c.d.PointReadAt(c.sess, c.zBig.Next(c.g)) }},
		{"asdb.RangeRead", mix.RangeRead, func(c *asdbClient) bool {
			return c.d.RangeReadAt(c.sess, c.g.Int64n(c.d.Small.NominalRows()))
		}},
		{"asdb.JoinRead", mix.JoinRead, func(c *asdbClient) bool {
			fid := c.g.Int64n(c.d.Fixed.NominalRows())
			return c.d.JoinReadAt(c.sess, fid, c.zBig.Next(c.g))
		}},
		{"asdb.Update", mix.Update, func(c *asdbClient) bool { return c.d.UpdateAt(c.sess, c.zBig.Next(c.g)) }},
		{"asdb.Insert", mix.Insert, func(c *asdbClient) bool { return c.d.InsertRow(c.sess) }},
		{"asdb.Delete", mix.Delete, func(c *asdbClient) bool {
			return c.d.DeleteAt(c.sess, c.g.Int64n(c.d.Growing.NominalRows()))
		}},
	}
}

// runASDBClients spawns the closed-loop clients, logging each finished
// transaction.
func runASDBClients(srv *engine.Server, d *asdb.Dataset, clients int, until sim.Time, ops *opLog) {
	txns := asdbTxns(asdb.DefaultMix())
	var totalW float64
	for _, t := range txns {
		totalW += t.w
	}
	for i := 0; i < clients; i++ {
		srv.Sim.Spawn("asdb-client", func(p *sim.Proc) {
			c := &asdbClient{
				d:    d,
				sess: srv.Open(p).BindCtx(),
				g:    srv.Sim.RNG().Fork(),
				zBig: sim.NewZipf(d.Big.NominalRows(), 0.6),
			}
			defer c.sess.Close()
			for !srv.Stopped() && p.Now() < until {
				pick := c.g.Float64() * totalW
				for _, t := range txns {
					pick -= t.w
					if pick <= 0 {
						t0 := p.Now()
						ok := c.sess.Exec(t.name, c.g, func() bool { return t.fn(c) })
						ops.add(p.Now(), sim.Duration(p.Now()-t0), ok)
						break
					}
				}
			}
		})
	}
}

func setupOLTPRW(seed int64, rec *recorder) func(*recorder) outcome {
	var d *asdb.Dataset
	rec.span("asdb_build", func() {
		d = asdb.Build(asdb.Config{SF: oltpSF, ActualRowsPerSF: asdbRowsPerSF, Seed: seed})
	})
	srv := newServer(seed, d.DB, rec)
	return func(rec *recorder) outcome {
		w := oltpWindow
		ops := newOpLog(w)
		srv.Start()
		runASDBClients(srv, d, oltpClients, sim.Time(1<<62), ops)
		before := w.drive(srv, rec)
		drain(srv, rec)

		var o outcome
		finish(srv, ops, &o)
		// Commits per simulated second over the window, as
		// harness.RunASDB reports throughput.
		o.tput = float64(srv.Ctr.Sub(before).TxnCommits) / w.measure.Seconds()
		return o
	}
}

// serve-storm: open-loop Poisson connection arrivals at 8 conn/s over
// the serving front end on ASDB SF 1000, with harness.ServeOnce's storm:
// 6x the arrival rate through the middle half of the measure window.
// Each connection is a short-lived proc, so the simulation kernel spawns
// and retires procs rather than resuming long-lived clients. The window
// is long (about 5,600 connections) because the offered load itself is
// drawn from the seed: over 20 s, its Poisson count moved goodput and
// allocation 6-8% from seed to seed.
//
// Requests are the ASDB OLTP statements only. With SumBig analytical
// reads in the mix, whether the storm tipped the front end into
// shedding depended on how a few multi-second reads clustered: goodput
// and p99 moved 8-25% from seed to seed even as the median of seven
// independent storms, and at 2% SumBig the OLTP median jumped between
// 0.4 ms and 100 ms. Those are too wide for a benchmark metric.
const (
	serveSF   = 1000
	serveRate = 8.0
	serveTail = 10 * sim.Second // in-flight requests finish before the stop, as in harness.Serving
)

var serveWindow = window{warmup: 2 * sim.Second, measure: 200 * sim.Second}

func setupServeStorm(seed int64, rec *recorder) func(*recorder) outcome {
	var d *asdb.Dataset
	rec.span("asdb_build", func() {
		d = asdb.Build(asdb.Config{SF: serveSF, ActualRowsPerSF: asdbRowsPerSF, Seed: seed})
	})
	srv := newServer(seed, d.DB, rec)
	var f *serve.Frontend
	rec.span("serve_new", func() { f = serve.New(srv, d, serve.Config{}) })
	return func(rec *recorder) outcome {
		w := serveWindow
		srv.Start()
		if err := f.Start(); err != nil {
			panic(fmt.Sprintf("serve-storm: front end on a fresh network: %v", err))
		}
		plan := openloop.Build(openloop.Config{
			Rate: serveRate, Horizon: w.warmup + w.measure,
			Storm: &openloop.Storm{At: w.warmup + w.measure/4, Dur: w.measure / 2, X: 6},
		}, srv.Sim.RNG().Fork())
		var st openloop.Stats
		openloop.Run(srv.Sim, f.Net, f.Cfg.Addr, plan, &st)
		w.drive(srv, rec)
		rec.span("drain", func() {
			srv.Sim.Run(w.end() + sim.Time(serveTail))
			srv.Stop()
			srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
		})

		ops := newOpLog(w)
		for _, s := range st.Samples {
			ops.add(s.At, s.Lat, s.OK)
		}
		o := outcome{srvCtr: f.Ctr}
		finish(srv, ops, &o)
		// Goodput: OK replies per simulated second of the window.
		o.tput = float64(o.attempted-o.failed) / w.measure.Seconds()
		// Every planned request is an attempt; one without an OK reply
		// (shed, refused dial, dropped, failed) is a failure.
		o.attempted = int64(plan.NReq)
		o.failed = o.attempted - st.OK
		return o
	}
}
