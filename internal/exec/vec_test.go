package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/access"
	"repro/internal/colstore"
	"repro/internal/exec/digest"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/trace"
)

// diffCase is one point of the executor's result gate: build constructs
// a plan over fresh tables in a fresh env, and its result must reproduce
// the case's committed digest (TestVectorizedMatchesRowEngine).
type diffCase struct {
	name  string
	grant int64 // grant bytes (0 = unlimited)
	build func(te *testEnv) *Node
}

// registerCSI builds and registers a columnstore over the table.
func registerCSI(te *testEnv, id int, tab *storage.Table, cols []int) *access.CSI {
	csi := access.NewCSI(colstore.Build(id, tab, cols))
	csi.Ix.File.Region = te.env.M.ReserveRegion(csi.Ix.File.Bytes() + 1<<20)
	te.env.BP.Register(csi.Ix.File)
	return csi
}

func diffCases() []diffCase {
	joinNode := func(te *testEnv, jt JoinType, par bool) *Node {
		orders := te.ordersTable()
		cust := te.custTable()
		return &Node{
			Kind:      KHashJoin,
			Left:      scanNode(cust, []int{0, 1}, nil, 0, false),
			Right:     scanNode(orders, []int{0, 1, 2}, nil, 0, par),
			BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: jt,
			Weight: orders.K, Parallel: par,
		}
	}
	mergeNode := func(te *testEnv, jt JoinType) *Node {
		orders := te.ordersTable()
		cust := te.custTable()
		return &Node{
			Kind:      KMergeJoin,
			Left:      scanNode(orders, []int{0, 1, 2}, nil, 0, true),
			Right:     scanNode(cust, []int{0, 1}, nil, 0, false),
			BuildKeys: []int{1}, ProbeKeys: []int{0}, JoinType: jt,
			Weight: orders.K, Parallel: true,
		}
	}
	nlNode := func(te *testEnv, jt JoinType) *Node {
		orders := te.ordersTable()
		cust := te.custTable()
		ix := access.NewBTIndex(100, "pk_customer", cust, []int{0}, true, true)
		ix.File.Region = te.env.M.ReserveRegion(ix.File.Bytes())
		te.env.BP.Register(ix.File)
		return &Node{
			Kind:  KNLIndexJoin,
			Left:  scanNode(orders, []int{0, 1, 2}, nil, 0, true),
			Index: ix, OuterKeys: []int{1}, InnerProj: []int{0, 1},
			JoinType: jt, Weight: orders.K, Parallel: true,
		}
	}
	allAggs := []AggSpec{
		{Kind: AggSum, Col: 1},
		{Kind: AggCount},
		{Kind: AggMin, Col: 1},
		{Kind: AggMax, Col: 1},
		{Kind: AggAvg, Col: 1},
	}

	cases := []diffCase{
		{name: "rowscan-proj", build: func(te *testEnv) *Node {
			return scanNode(te.ordersTable(), []int{2, 0}, nil, 0, true)
		}},
		{name: "rowscan-pred", build: func(te *testEnv) *Node {
			return scanNode(te.ordersTable(), []int{0, 2}, func(r Row) bool { return r[1] == 3 }, 1, true)
		}},
		{name: "rowscan-pred-none-match", build: func(te *testEnv) *Node {
			return scanNode(te.ordersTable(), []int{0}, func(r Row) bool { return r[1] == 99 }, 1, true)
		}},
		{name: "colscan-pred", build: func(te *testEnv) *Node {
			orders := te.ordersTable()
			csi := registerCSI(te, 200, orders, []int{0, 1, 2})
			return &Node{
				Kind: KColScan, CSI: csi, Proj: []int{0, 2},
				Pred: func(r Row) bool { return r[1] == 3 }, NPred: 1, PredCols: []int{1},
				Weight: orders.K, Parallel: true, Name: "orders_csi",
			}
		}},
		{name: "colscan-count-shape", build: func(te *testEnv) *Node {
			orders := te.ordersTable()
			csi := registerCSI(te, 201, orders, []int{0, 1, 2})
			return &Node{
				Kind: KHashAgg,
				Left: &Node{Kind: KColScan, CSI: csi, Proj: nil, Weight: orders.K, Parallel: true},
				Aggs: []AggSpec{{Kind: AggCount}}, Weight: orders.K,
			}
		}},
		{name: "colscan-delta", build: func(te *testEnv) *Node {
			orders := te.ordersTable()
			csi := registerCSI(te, 202, orders, []int{0, 1, 2})
			for i := int64(0); i < 7; i++ {
				csi.Ix.AppendDelta([]int64{1000 + i, i % 20, 50})
			}
			return &Node{
				Kind: KColScan, CSI: csi, Proj: []int{0, 1},
				Pred: func(r Row) bool { return r[1]%2 == 1 }, NPred: 1, PredCols: []int{1},
				Weight: orders.K, Parallel: true,
			}
		}},
		{name: "filter", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KFilter,
				Left: scanNode(te.ordersTable(), []int{0, 1, 2}, nil, 0, true),
				Pred: func(r Row) bool { return r[2] > 50 }, NPred: 1, Weight: te.env.Cost.TupleBytes,
			}
		}},
		{name: "filter-nil-pred", build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KFilter,
				Left:   scanNode(te.ordersTable(), []int{0, 1}, nil, 0, true),
				Weight: 5,
			}
		}},
		{name: "filter-chain", build: func(te *testEnv) *Node {
			inner := &Node{
				Kind: KFilter,
				Left: scanNode(te.ordersTable(), []int{0, 1, 2}, nil, 0, true),
				Pred: func(r Row) bool { return r[2] > 20 }, NPred: 1, Weight: 5,
			}
			return &Node{
				Kind: KFilter, Left: inner,
				Pred: func(r Row) bool { return r[1] < 10 }, NPred: 1, Weight: 5,
			}
		}},
		{name: "project", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KProject,
				Left: scanNode(te.ordersTable(), []int{0, 2}, nil, 0, true),
				Exprs: []func(Row) int64{
					func(r Row) int64 { return r[0] + r[1] },
					func(r Row) int64 { return r[1] * 3 },
				},
				Weight: 5,
			}
		}},
		{name: "streamagg", build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KStreamAgg,
				Left:   scanNode(te.ordersTable(), []int{1, 2}, nil, 0, true),
				Groups: []int{0}, Aggs: allAggs, Weight: 5, Parallel: true,
			}
		}},
		{name: "sort-multikey", build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KSort,
				Left:   scanNode(te.ordersTable(), []int{1, 2, 0}, nil, 0, true),
				Keys:   []SortKey{{Col: 0}, {Col: 1, Desc: true}},
				Weight: 5, Parallel: true,
			}
		}},
		{name: "top-limit", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KTop,
				Left: scanNode(te.ordersTable(), []int{2, 0}, nil, 0, true),
				Keys: []SortKey{{Col: 0, Desc: true}}, Limit: 13,
				Weight: 5,
			}
		}},
		{name: "top-limit-over-input", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KTop,
				Left: scanNode(te.ordersTable(), []int{2, 0}, nil, 0, true),
				Keys: []SortKey{{Col: 0}}, Limit: 1000,
				Weight: 5,
			}
		}},
		{name: "top-no-keys", build: func(te *testEnv) *Node {
			return &Node{
				Kind:  KTop,
				Left:  scanNode(te.ordersTable(), []int{0, 1}, nil, 0, true),
				Limit: 17, Weight: 5,
			}
		}},
		{name: "agg-empty-input-scalar", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KHashAgg,
				Left: scanNode(te.ordersTable(), []int{1, 2}, func(r Row) bool { return false }, 1, true),
				Aggs: allAggs, Weight: 5,
			}
		}},
		{name: "streamagg-empty-input-scalar", build: func(te *testEnv) *Node {
			return &Node{
				Kind: KStreamAgg,
				Left: scanNode(te.ordersTable(), []int{1, 2}, func(r Row) bool { return false }, 1, true),
				Aggs: allAggs, Weight: 5,
			}
		}},
		{name: "agg-wide-groups", build: func(te *testEnv) *Node {
			// Five group columns exercise the wide (string-key) fallback.
			return &Node{
				Kind:   KHashAgg,
				Left:   scanNode(te.ordersTable(), []int{0, 1, 2}, nil, 0, true),
				Groups: []int{1, 2, 1, 2, 1}, Aggs: allAggs,
				Weight: 5, Parallel: true,
			}
		}},
		{name: "hashjoin-spill", grant: 64, build: func(te *testEnv) *Node {
			return joinNode(te, InnerJoin, false)
		}},
		{name: "sort-spill", grant: 64, build: func(te *testEnv) *Node {
			return &Node{
				Kind: KSort,
				Left: scanNode(te.ordersTable(), []int{1, 0}, nil, 0, true),
				Keys: []SortKey{{Col: 0}}, Weight: 5, Parallel: true,
			}
		}},
		{name: "hashagg-spill", grant: 64, build: func(te *testEnv) *Node {
			return &Node{
				Kind:   KHashAgg,
				Left:   scanNode(te.ordersTable(), []int{1, 2}, nil, 0, true),
				Groups: []int{0}, Aggs: allAggs, Weight: 5, Parallel: true,
			}
		}},
	}
	for _, jt := range []JoinType{InnerJoin, SemiJoin, AntiJoin} {
		jt := jt
		cases = append(cases,
			diffCase{name: fmt.Sprintf("hashjoin-%d", jt), build: func(te *testEnv) *Node {
				return joinNode(te, jt, true)
			}},
			diffCase{name: fmt.Sprintf("hashjoin-%d-empty-build", jt), build: func(te *testEnv) *Node {
				n := joinNode(te, jt, true)
				n.Left.Pred = func(r Row) bool { return false }
				n.Left.NPred = 1
				return n
			}},
			diffCase{name: fmt.Sprintf("hashjoin-%d-empty-probe", jt), build: func(te *testEnv) *Node {
				n := joinNode(te, jt, true)
				n.Right.Pred = func(r Row) bool { return false }
				n.Right.NPred = 1
				return n
			}},
			diffCase{name: fmt.Sprintf("mergejoin-%d", jt), build: func(te *testEnv) *Node {
				return mergeNode(te, jt)
			}},
			diffCase{name: fmt.Sprintf("nljoin-%d", jt), build: func(te *testEnv) *Node {
				return nlNode(te, jt)
			}},
		)
	}
	return cases
}

// TestVectorizedMatchesRowEngine is the executor's result gate: every
// operator kind, join type, and aggregate kind (plus empty inputs,
// min/max sentinels, and spill paths) must reproduce the committed
// digest in testdata/diffcases.digest at DOP 1 and DOP 4. The digests
// were recorded while a row-at-a-time engine still ran beside the batch
// engine and both matched each one, so a match here is a match with the
// row engine's rows, order, and spill accounting.
func TestVectorizedMatchesRowEngine(t *testing.T) {
	want, err := digest.Load("testdata/diffcases.digest")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range diffCases() {
		c := c
		for _, cores := range []int{1, 4} {
			cores := cores
			name := fmt.Sprintf("%s/dop%d", c.name, cores)
			t.Run(name, func(t *testing.T) {
				te := newTestEnv(cores)
				if c.grant != 0 {
					te.env.Grant = &Grant{Bytes: c.grant}
				}
				rows, st := te.run(c.build(te))
				if got := digest.Result(rows, st.OutRows, st.Spills, st.SpillBytes); got != want[name] {
					t.Fatalf("digest mismatch\ngot  %s %s\nwant %s %s\nrows (%d): %v",
						name, got, name, want[name], len(rows), sampleRows(rows))
				}
				if c.grant != 0 && st.Spills == 0 {
					t.Fatalf("spill case did not spill")
				}
				if len(rows) > 0 && st.Batches == 0 {
					t.Fatalf("run reported no batches")
				}
			})
		}
	}
}

func sampleRows(rows []Row) []Row {
	if len(rows) > 12 {
		return rows[:12]
	}
	return rows
}

// TestKWayMergeEqualKeysDeterministic pins the merge tie-break rule:
// equal keys drain lower-index chunks first, reproducing the stable
// order a serial sort of the concatenated input gives.
func TestKWayMergeEqualKeysDeterministic(t *testing.T) {
	chunks := [][]Row{
		{{1, 10}, {1, 11}, {3, 12}},
		{{1, 20}, {2, 21}},
		{},
		{{1, 30}, {3, 31}},
	}
	got := kwayMerge(chunks, func(a, b Row) bool { return a[0] < b[0] })
	want := []Row{{1, 10}, {1, 11}, {1, 20}, {1, 30}, {2, 21}, {3, 12}, {3, 31}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order:\ngot  %v\nwant %v", got, want)
	}
	// And it must agree with a stable sort of the concatenation.
	var all []Row
	for _, c := range chunks {
		all = append(all, c...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i][0] < all[j][0] })
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("merge disagrees with stable sort:\ngot  %v\nwant %v", got, all)
	}
}

// TestTopKIdxMatchesStableSortPrefix checks the bounded heap against the
// definition the Top operator implements: the first limit rows of the
// input's stable sort.
func TestTopKIdxMatchesStableSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		limit := rng.Intn(70)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(7)) // heavy ties
		}
		less := func(i, j int32) bool { return vals[i] < vals[j] }
		got := topKIdx(n, limit, less)

		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
		}
		sort.SliceStable(ref, func(a, b int) bool { return vals[ref[a]] < vals[ref[b]] })
		want := limit
		if want > n {
			want = n
		}
		if want < 0 {
			want = 0
		}
		if !reflect.DeepEqual(got, ref[:want]) && !(len(got) == 0 && want == 0) {
			t.Fatalf("trial %d (n=%d limit=%d): got %v want %v (vals %v)", trial, n, limit, got, ref[:want], vals)
		}
	}
}

// TestAggTableInlineKeyAllocs is the encodeKey regression test: feeding
// rows into existing groups through the inline fixed-width key must not
// allocate.
func TestAggTableInlineKeyAllocs(t *testing.T) {
	at := newAggTable([]int{0, 1}, []AggSpec{{Kind: AggSum, Col: 2}, {Kind: AggCount}})
	const n = 64
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	for i := 0; i < n; i++ {
		cols[0][i], cols[1][i], cols[2][i] = int64(i%4), int64(i%3), int64(i)
	}
	// Materialize every group first, then measure steady-state lookups.
	for i := int32(0); i < n; i++ {
		accumulateCols(at.entCols(cols, i).state, at.aggs, cols, i, 1)
	}
	i := int32(0)
	avg := testing.AllocsPerRun(1000, func() {
		ph := i % n
		accumulateCols(at.entCols(cols, ph).state, at.aggs, cols, ph, 1)
		i++
	})
	if avg != 0 {
		t.Fatalf("aggTable inline path allocates %.2f per row, want 0", avg)
	}
}

// TestDecodeRangeMatchesDecode checks DecodeRange against Decode for all
// encodings over assorted ranges.
func TestDecodeRangeMatchesDecode(t *testing.T) {
	mk := map[string][]int64{}
	packed := make([]int64, 500)
	rle := make([]int64, 500)
	dict := make([]int64, 500)
	for i := range packed {
		packed[i] = int64(i)*12345 + 7 // wide span: frame-of-reference packing
		rle[i] = int64(i / 100)        // long runs: RLE
		dict[i] = int64(i%3) * 1e12    // 3 distinct huge values: dictionary
	}
	mk["packed"] = packed
	mk["rle"] = rle
	mk["dict"] = dict
	for name, vals := range mk {
		s := colstore.Encode(vals)
		full := s.Decode(nil)
		for _, r := range [][2]int{{0, 500}, {0, 1}, {499, 500}, {123, 457}, {100, 100}, {37, 38}} {
			lo, hi := r[0], r[1]
			got := s.DecodeRange(lo, hi, nil)
			if !reflect.DeepEqual(append([]int64{}, got...), append([]int64{}, full[lo:hi]...)) {
				t.Fatalf("%s [%d,%d): got %v want %v", name, lo, hi, got, full[lo:hi])
			}
		}
	}
}

// TestVectorizedTraceRecordsBatches checks spans carry batch counts.
func TestVectorizedTraceRecordsBatches(t *testing.T) {
	te := newTestEnv(2)
	stmt := &metrics.Counters{}
	te.env.Trace = trace.New("q", stmt)
	tab := te.ordersTable()
	n := scanNode(tab, []int{0, 2}, nil, 0, true)
	rows, st := te.run(n)
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	if st.Batches == 0 {
		t.Fatal("no batches recorded in stats")
	}
	sp := te.env.Trace.Root
	if sp == nil || sp.Batches == 0 {
		t.Fatalf("span batches = %+v", sp)
	}
	if sp.ActRows != 200 {
		t.Fatalf("span rows = %d", sp.ActRows)
	}
}

// TestBatchBuilderBoundaries exercises builder sealing across batch
// boundaries, zero-width batches, and range appends.
func TestBatchBuilderBoundaries(t *testing.T) {
	bb := newBatchBuilder(2, 4)
	src := [][]int64{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11, 12, 13, 14, 15, 16, 17, 18, 19}}
	bb.appendSrcRange(src, 0, 3)
	bb.appendSrcRange(src, 3, 10)
	bs := bb.finish()
	if len(bs) != 3 || bs[0].Rows() != 4 || bs[1].Rows() != 4 || bs[2].Rows() != 2 {
		t.Fatalf("batches %v", bs)
	}
	rows := batchesToRows(bs)
	for i, r := range rows {
		if r[0] != int64(i) || r[1] != int64(10+i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	// Zero-width rows round-trip through builders (COUNT(*) shapes).
	zb := newBatchBuilder(0, 4)
	for i := 0; i < 6; i++ {
		zb.room()
	}
	zrows := batchesToRows(zb.finish())
	if len(zrows) != 6 || len(zrows[0]) != 0 {
		t.Fatalf("zero-width rows %v", zrows)
	}
}

// TestVectorizedSerialParallelIdentical checks the determinism
// guarantee: the engine emits identical rows at any DOP.
func TestVectorizedSerialParallelIdentical(t *testing.T) {
	run := func(cores int) []Row {
		te := newTestEnv(cores)
		orders := te.ordersTable()
		cust := te.custTable()
		join := &Node{
			Kind:      KHashJoin,
			Left:      scanNode(cust, []int{0, 1}, nil, 0, false),
			Right:     scanNode(orders, []int{0, 1, 2}, nil, 0, cores > 1),
			BuildKeys: []int{0}, ProbeKeys: []int{1}, JoinType: InnerJoin,
			Weight: orders.K, Parallel: cores > 1,
		}
		root := &Node{
			Kind: KSort, Left: join,
			Keys:   []SortKey{{Col: 2}, {Col: 0, Desc: true}},
			Weight: orders.K, Parallel: cores > 1,
		}
		rows, _ := te.run(root)
		return rows
	}
	serial := run(1)
	par := run(4)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("serial/parallel rows differ: %d vs %d", len(serial), len(par))
	}
}
