package main

import (
	"bytes"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload/asdb"
)

func TestModuleOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"innermost module wins", []string{"repro/internal/cache.(*LLC).Sequential", "repro/internal/hw.(*Machine).TouchSeq", "repro/internal/exec.scan"}, "cache"},
		{"runtime under a module", []string{"runtime.chansend", "runtime.chansend1", "repro/internal/sim.(*Proc).park", "repro/internal/hw.(*Machine).Exec"}, "sim"},
		{"allocation under btree", []string{"runtime.mallocgc", "runtime.makeslice", "repro/internal/btree.(*Tree).split", "repro/internal/access.(*BTIndex).Insert"}, "btree"},
		{"nested package", []string{"repro/internal/workload/tpch.(*Dataset).Query", "repro/internal/engine.(*Session).Query"}, "workload"},
		{"closure", []string{"repro/internal/serve.(*Frontend).Start.func1", "runtime.goexit"}, "serve"},
		{"benchmark client loop", []string{"runtime.growslice", "main.runASDBClients.func1", "repro/internal/sim.(*Sim).Spawn.func1"}, "workload"},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "gc"},
		{"background sweep", []string{"runtime.sweepone", "runtime.bgsweep", "runtime.goexit"}, "gc"},
		{"scheduler stack", []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim"},
		{"nothing known", []string{"runtime.sysmon", "runtime.mstart1", "runtime.mstart"}, ""},
		{"empty", nil, ""},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("%s: moduleOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeFractions(t *testing.T) {
	a := attribute([]stack{
		{ns: 30, frames: []string{"repro/internal/cache.x"}},
		{ns: 10, frames: []string{"repro/internal/sim.y"}},
		{ns: 10, frames: []string{"runtime.sysmon"}},
	})
	if a.totalNs != 50 || a.frac("cache") != 0.6 || a.frac("sim") != 0.2 || a.frac("") != 0.2 || a.frac("wal") != 0 {
		t.Fatalf("attribution = %+v", a)
	}
	if (attribution{}).frac("sim") != 0 {
		t.Fatal("empty attribution must report 0")
	}
}

// TestParseRealProfile decodes a CPU profile taken by runtime/pprof
// while this goroutine spins in the simulator's RNG, and expects most
// of it charged to sim.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	g := sim.NewRNG(1)
	var sink int64
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			sink += g.Int64n(1 << 20)
		}
	}
	pprof.StopCPUProfile()
	_ = sink
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := attribute(stacks)
	// Identical stacks are merged into one sample, so count CPU time.
	if a.totalNs < int64(100*time.Millisecond) {
		t.Fatalf("%d ns of samples in %d stacks for a 500 ms loop", a.totalNs, len(stacks))
	}
	// Under the race detector much of the loop runs in C code the
	// profiler cannot attribute; of what it attributes, sim is most.
	if simNs, known := a.byLayer["sim"], a.totalNs-a.byLayer[""]; 2*simNs < known || simNs == 0 {
		t.Fatalf("sim has %d of %d attributed ns of a loop inside sim.RNG; by layer %v", simNs, known, a.byLayer)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("want an error for non-gzip input")
	}
	// A field whose length runs past the end of the message.
	if _, err := pbFields([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("want an error for a truncated field")
	}
	f, err := pbFields([]byte{0x08, 0x96, 0x01, 0x12, 0x03, 0x03, 0x8e, 0x02})
	if err != nil || len(f) != 2 || f[0].varint != 150 {
		t.Fatalf("fields %+v, err %v", f, err)
	}
	if v, err := f[1].uints(nil); err != nil || !reflect.DeepEqual(v, []uint64{3, 270}) {
		t.Fatalf("packed values %v, err %v", v, err)
	}
}

func TestDigest(t *testing.T) {
	base := outcome{
		ctr:    metrics.Counters{TxnCommits: 7},
		opSum:  42,
		qstats: []metrics.QueryStatRow{{Query: "asdb.Update", Executions: 4}},
	}
	d := digest(base)
	if len(d) != 64 || digest(base) != d {
		t.Fatalf("digest %q is not a stable sha256", d)
	}
	// Host-side fields are not outputs of the model.
	host := base
	host.tput, host.attempted = 99, 99
	if digest(host) != d {
		t.Fatal("digest depends on fields computed from the outputs")
	}
	for name, mut := range map[string]func(o *outcome){
		"counter":    func(o *outcome) { o.ctr.WaitNs[metrics.WaitLock]++ },
		"operations": func(o *outcome) { o.opSum++ },
		"query row":  func(o *outcome) { o.qstats = []metrics.QueryStatRow{{Query: "asdb.Update", Executions: 5}} },
		"wal":        func(o *outcome) { o.flushes++ },
		"serve":      func(o *outcome) { o.srvCtr.Shed++ },
	} {
		o := base
		mut(&o)
		if digest(o) == d {
			t.Errorf("digest ignores a change to the %s", name)
		}
	}
}

func TestCheckDigests(t *testing.T) {
	const w = "oltp-rw"
	rec := recordedDigests[w]
	if msg := checkDigests(w, defaultSeed, []string{rec, rec}); msg != "" {
		t.Fatalf("recorded digest rejected: %s", msg)
	}
	if checkDigests(w, defaultSeed, []string{"x", "x"}) == "" {
		t.Fatal("default seed must match the recorded digest")
	}
	if msg := checkDigests(w, 7, []string{"x", "x"}); msg != "" {
		t.Fatalf("other seeds only need equal repeats: %s", msg)
	}
	if checkDigests(w, 7, []string{"x", "y"}) == "" {
		t.Fatal("differing repeats must fail")
	}
	if checkDigests(w, 7, nil) == "" {
		t.Fatal("no runs must fail")
	}
}

func TestOpLog(t *testing.T) {
	w := window{warmup: 10, measure: 10}
	a, b := newOpLog(w), newOpLog(w)
	for i, o := range []struct {
		end sim.Time
		lat sim.Duration
		ok  bool
	}{{5, 1, true}, {11, 4, true}, {12, 2, false}, {20, 3, true}, {21, 9, true}} {
		a.add(o.end, o.lat, o.ok)
		if i != 1 {
			b.add(o.end, o.lat, o.ok)
		}
	}
	if a.n != 3 || a.failed != 1 || a.last != 21 || len(a.good) != 2 {
		t.Fatalf("log %+v: want 3 in window, 1 failed, last 21, 2 latencies", a)
	}
	if a.sum == b.sum || a.sum == fnvOffset {
		t.Fatal("the sum must cover every operation, in the window or not")
	}
	if p50, p99 := a.percentiles(); p50 != 3e-6 || p99 != 3e-6 {
		t.Fatalf("percentiles %v %v of latencies 3 ns and 4 ns", p50, p99)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	lat := make([]sim.Duration, 101)
	for i := range lat {
		lat[i] = sim.Duration(i) * sim.Millisecond
	}
	if p := pctMs(lat, 0.5); p != 50 {
		t.Fatalf("p50 = %v", p)
	}
	if p := pctMs(lat, 0.99); p != 99 {
		t.Fatalf("p99 = %v", p)
	}
	if pctMs(nil, 0.5) != 0 {
		t.Fatal("empty percentile must be 0")
	}
}

// TestASDBClientsMatchRunClients pins the benchmark's closed-loop ASDB
// clients to asdb.RunClients: the same simulated run, counter for
// counter and query row for query row.
func TestASDBClientsMatchRunClients(t *testing.T) {
	run := func(drive func(*engine.Server, *asdb.Dataset)) (metrics.Counters, []metrics.QueryStatRow) {
		d := asdb.Build(asdb.Config{SF: 200, ActualRowsPerSF: asdbRowsPerSF, Seed: 3})
		cfg := engine.DefaultConfig()
		cfg.Seed = 3
		srv := engine.NewServer(cfg)
		srv.AttachDB(d.DB)
		srv.WarmBufferPool()
		srv.Start()
		drive(srv, d)
		srv.Sim.Run(sim.Time(300 * sim.Millisecond))
		srv.Stop()
		srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
		return *srv.Ctr, srv.QStats.Snapshot()
	}
	wantCtr, wantQ := run(func(srv *engine.Server, d *asdb.Dataset) {
		var st asdb.Stats
		asdb.RunClients(srv, d, oltpClients, asdb.DefaultMix(), sim.Time(1<<62), &st)
	})
	ops := newOpLog(window{measure: 1 << 62})
	gotCtr, gotQ := run(func(srv *engine.Server, d *asdb.Dataset) {
		runASDBClients(srv, d, oltpClients, sim.Time(1<<62), ops)
	})
	if wantCtr.TxnCommits == 0 {
		t.Fatal("reference run committed nothing")
	}
	if gotCtr != wantCtr {
		t.Fatalf("counters differ:\n got %+v\nwant %+v", gotCtr, wantCtr)
	}
	if !reflect.DeepEqual(gotQ, wantQ) {
		t.Fatal("query stats differ")
	}
	if ops.n-ops.failed != wantCtr.TxnCommits {
		t.Fatalf("%d transactions logged OK, %d committed", ops.n-ops.failed, wantCtr.TxnCommits)
	}
}
