package tpch

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/exec/digest"
	"repro/internal/sim"
)

// TestVectorizedDoesNotPerturbResults runs each of the 22 queries once
// per data size and requires its result to reproduce the committed
// digest in testdata/queries.digest. The digests were recorded while a
// row-at-a-time engine still ran beside the batch engine and both
// matched each one. At 300 lineitem rows per SF half the queries return
// no rows; at 10000 all but Q20 and Q21 do. This is the end-to-end half
// of the executor's result gate; the operator-level half lives in
// internal/exec.
func TestVectorizedDoesNotPerturbResults(t *testing.T) {
	want, err := digest.Load("testdata/queries.digest")
	if err != nil {
		t.Fatal(err)
	}
	run := func(qn, lineitems int) ([][]int64, exec.QueryStats) {
		d := Build(Config{SF: 1, ActualLineitemPerSF: lineitems, Seed: int64(qn)})
		srv := engine.NewServer(engine.Config{Seed: int64(qn)})
		srv.AttachDB(d.DB)
		srv.WarmBufferPool()
		srv.Start()
		g := sim.NewRNG(13)
		q := d.Query(qn, g)
		var res engine.QueryResult
		srv.Sim.Spawn("q", func(p *sim.Proc) {
			res = srv.Open(p).Query(q, engine.QueryOptions{})
		})
		srv.Sim.Run(srv.Sim.Now() + sim.Time(600*sim.Second))
		srv.Stop()
		return res.Rows, res.Stats
	}
	for _, lineitems := range []int{300, 10000} {
		for qn := 1; qn <= NumQueries; qn++ {
			name := fmt.Sprintf("Q%d/li%d", qn, lineitems)
			rows, st := run(qn, lineitems)
			if got := digest.Result(rows, st.OutRows, st.Spills, st.SpillBytes); got != want[name] {
				t.Errorf("digest mismatch\ngot  %s %s\nwant %s %s", name, got, name, want[name])
			}
		}
	}
}
