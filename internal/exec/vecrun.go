package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/access"
	"repro/internal/sim"
)

// This file is the executor's engine: operators consume and produce
// column-vector batches (vec.go) instead of materialized []Row. It
// charges CPU, buffer-pool pages, metadata touches and deadline checks
// per batch. Operator-region LLC touches (TouchSeq/TouchRandom) stay at
// partition granularity, because the cache model samples coarse
// streaming touches (see access.ScanCursor).
//
// NL index join, merge join, and stream aggregate are row-bridged: their
// row-at-a-time bodies (join.go, merge.go) run between batch
// conversions, at the cost of one materialization at the operator
// boundary.
//
// The committed result digests in testdata/diffcases.digest and
// internal/workload/tpch/testdata pin every operator's rows, order, and
// spill accounting (TestVectorizedMatchesRowEngine).

// runNodeVec dispatches one plan node, opening a trace span around it
// when the query is being traced; spans also record the emitted batch
// count. Only the coordinator proc walks the plan tree, so span nesting
// follows call nesting exactly.
func runNodeVec(p *sim.Proc, env *Env, n *Node, st *QueryStats) []*Batch {
	if env.expired(p.Now()) {
		return nil
	}
	if env.Trace == nil {
		out := execNodeVec(p, env, n, st)
		st.Batches += len(out)
		return out
	}
	sp := env.Trace.Enter(n.Kind.String(), n.Name, n.Parallel, n.EstRows, p.Now())
	out := execNodeVec(p, env, n, st)
	st.Batches += len(out)
	sp.Batches = int64(len(out))
	rows := int64(batchRowCount(out))
	env.Trace.Exit(sp, rows, rows*n.Weight, p.Now())
	return out
}

func execNodeVec(p *sim.Proc, env *Env, n *Node, st *QueryStats) []*Batch {
	size := batchSize(env)
	switch n.Kind {
	case KRowScan:
		return vecRowScan(p, env, n)
	case KColScan:
		return vecColScan(p, env, n)
	case KHashJoin:
		build := runNodeVec(p, env, n.Left, st)
		probe := runNodeVec(p, env, n.Right, st)
		return vecHashJoin(p, env, n, st, build, probe)
	case KNLIndexJoin:
		outer := batchesToRows(runNodeVec(p, env, n.Left, st))
		return rowsToBatches(runNLIndexJoin(p, env, n, st, outer), size)
	case KMergeJoin:
		left := batchesToRows(runNodeVec(p, env, n.Left, st))
		right := batchesToRows(runNodeVec(p, env, n.Right, st))
		return rowsToBatches(runMergeJoin(p, env, n, st, left, right), size)
	case KHashAgg:
		in := runNodeVec(p, env, n.Left, st)
		return vecHashAgg(p, env, n, st, in)
	case KStreamAgg:
		in := batchesToRows(runNodeVec(p, env, n.Left, st))
		return rowsToBatches(runStreamAgg(p, env, n, st, in), size)
	case KSort:
		in := runNodeVec(p, env, n.Left, st)
		return vecSort(p, env, n, st, in)
	case KTop:
		in := runNodeVec(p, env, n.Left, st)
		return vecTop(p, env, n, in)
	case KFilter:
		in := runNodeVec(p, env, n.Left, st)
		return vecFilter(p, env, n, in)
	case KProject:
		in := runNodeVec(p, env, n.Left, st)
		return vecProject(p, env, n, in)
	default:
		panic(fmt.Sprintf("exec: unknown node kind %v", n.Kind))
	}
}

// vecRowScan scans the heap in batch-sized nominal ranges. Without a
// predicate it bulk-copies projected column ranges straight out of the
// column-major table storage and never materializes a row.
func vecRowScan(p *sim.Proc, env *Env, n *Node) []*Batch {
	t := n.Heap.T
	total := t.ActualRows()
	parts := stageDop(env, n)
	size := batchSize(env)
	results := make([][]*Batch, parts)
	chunk := (total + int64(parts) - 1) / int64(parts)
	srcCols := make([][]int64, len(n.Proj))
	for i, c := range n.Proj {
		srcCols[i] = t.Col(c)
	}
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		lo := int64(part) * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if lo >= hi {
			return
		}
		cur := n.Heap.NewScanCursor(n.NPred)
		bb := newBatchBuilder(len(n.Proj), size)
		var buf Row
		if n.Pred != nil {
			buf = make(Row, t.NCols())
		}
		for blo := lo; blo < hi; blo += int64(size) {
			if env.expired(ctx.P.Now()) {
				break
			}
			bhi := blo + int64(size)
			if bhi > hi {
				bhi = hi
			}
			cur.ChargeRows(ctx, blo*t.K, (bhi-blo)*t.K)
			if n.Pred == nil {
				bb.appendSrcRange(srcCols, int(blo), int(bhi))
				continue
			}
			for r := blo; r < bhi; r++ {
				row := t.Row(r, buf)
				if !n.Pred(row) {
					continue
				}
				dst, i := bb.room()
				for c, tc := range n.Proj {
					dst.Cols[c][i] = row[tc]
				}
			}
		}
		cur.Close(ctx)
		if parts > 1 {
			ctx.CPU(float64(int64(bb.rows)*n.Weight) * ctx.Cost.ExchangeIPR)
		}
		results[part] = bb.finish()
	})
	return flattenBatches(results)
}

// vecColScan decodes each needed column segment in batch-sized row
// ranges (colstore.DecodeRange) into reused scratch vectors; the
// predicate-free path bulk-copies decoded ranges into output batches.
func vecColScan(p *sim.Proc, env *Env, n *Node) []*Batch {
	csi := n.CSI
	ix := csi.Ix
	segs := ix.Segments()
	size := batchSize(env)
	needCols := map[int]bool{}
	for _, c := range n.Proj {
		needCols[c] = true
	}
	for _, c := range n.PredCols {
		needCols[c] = true
	}
	var colPoss []int
	colOfPos := map[int]int{}
	for tc := range needCols {
		cp := ix.ColPos(tc)
		if cp < 0 {
			panic(fmt.Sprintf("exec: column %d not in columnstore %s", tc, ix.File.Name))
		}
		colPoss = append(colPoss, cp)
		colOfPos[tc] = cp
	}
	sort.Ints(colPoss)
	// COUNT(*)-shaped plans project no columns and filter on none;
	// segment row counts then come from the index's first column.
	countPos := 0
	if len(colPoss) > 0 {
		countPos = colPoss[0]
	}

	parts := segs
	if parts == 0 {
		parts = 1
	}
	results := make([][]*Batch, parts+1)
	env.parallel(p, parts, func(ctx *access.Ctx, seg int) {
		if segs == 0 {
			return
		}
		nrows := ix.Segment(countPos, seg).N
		curs := make([]*access.SegScanCursor, len(colPoss))
		for i, cp := range colPoss {
			curs[i] = csi.NewSegScanCursor(cp, seg, n.NPred)
		}
		dec := make(map[int][]int64, len(colPoss)) // decoded vectors by column position
		bb := newBatchBuilder(len(n.Proj), size)
		src := make([][]int64, len(n.Proj))
		var row Row
		if n.Pred != nil {
			row = make(Row, ix.Table.NCols())
		}
		for lo := 0; lo < nrows; lo += size {
			if env.expired(ctx.P.Now()) {
				break
			}
			hi := lo + size
			if hi > nrows {
				hi = nrows
			}
			for i, cp := range colPoss {
				curs[i].ChargeRows(ctx, lo, hi)
				dec[cp] = ix.Segment(cp, seg).DecodeRange(lo, hi, dec[cp])
			}
			if n.Pred == nil {
				for i, tc := range n.Proj {
					src[i] = dec[colOfPos[tc]]
				}
				bb.appendSrcRange(src, 0, hi-lo)
				continue
			}
			for r := 0; r < hi-lo; r++ {
				// Materialize only the needed columns into a sparse row.
				for tc, cp := range colOfPos {
					row[tc] = dec[cp][r]
				}
				if !n.Pred(row) {
					continue
				}
				dst, i := bb.room()
				for c, tc := range n.Proj {
					dst.Cols[c][i] = dec[colOfPos[tc]][r]
				}
			}
		}
		for _, cur := range curs {
			cur.Close(ctx)
		}
		if parts > 1 {
			ctx.CPU(float64(int64(bb.rows)*n.Weight) * ctx.Cost.ExchangeIPR)
		}
		results[seg] = bb.finish()
	})
	// Delta store scan (trickle inserts not yet compressed), serial.
	if ix.DeltaNominalRows() > 0 {
		ctx := env.newCtx(p, env.home())
		csi.ChargeDeltaScan(ctx)
		ctx.Flush()
		bb := newBatchBuilder(len(n.Proj), size)
		row := make(Row, ix.Table.NCols())
		for _, dr := range ix.DeltaRows() {
			for i := range row {
				row[i] = 0
			}
			for pos, tc := range ix.Cols {
				if pos < len(dr) {
					row[tc] = dr[pos]
				}
			}
			if n.Pred != nil && !n.Pred(row) {
				continue
			}
			dst, i := bb.room()
			for c, tc := range n.Proj {
				dst.Cols[c][i] = row[tc]
			}
		}
		results[parts] = bb.finish()
	}
	return flattenBatches(results)
}

// vecFilter attaches a selection vector instead of copying survivors.
func vecFilter(p *sim.Proc, env *Env, n *Node, in []*Batch) []*Batch {
	ctx := env.newCtx(p, env.home())
	out := make([]*Batch, 0, len(in))
	var scratch Row
	for _, b := range in {
		ctx.CPU(float64(int64(b.Rows())*n.Weight) * ctx.Cost.PredIPR * float64(maxInt(n.NPred, 1)))
		if n.Pred == nil {
			out = append(out, b)
			continue
		}
		if scratch == nil {
			scratch = make(Row, b.Width())
		}
		var sel []int32
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			for c := range b.Cols {
				scratch[c] = b.Cols[c][ph]
			}
			if n.Pred(scratch) {
				sel = append(sel, ph)
			}
		}
		switch {
		case len(sel) == 0:
			// Fully filtered: drop the batch.
		case len(sel) == b.Rows() && b.Sel == nil:
			out = append(out, b)
		default:
			out = append(out, &Batch{Cols: b.Cols, Sel: sel, n: b.n})
		}
	}
	ctx.Flush()
	return out
}

// vecProject evaluates scalar expressions into fresh output batches.
func vecProject(p *sim.Proc, env *Env, n *Node, in []*Batch) []*Batch {
	ctx := env.newCtx(p, env.home())
	bb := newBatchBuilder(len(n.Exprs), batchSize(env))
	var scratch Row
	for _, b := range in {
		ctx.CPU(float64(int64(b.Rows())*n.Weight) * float64(len(n.Exprs)) * 2)
		if scratch == nil && b.Width() > 0 {
			scratch = make(Row, b.Width())
		}
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			for c := range b.Cols {
				scratch[c] = b.Cols[c][ph]
			}
			dst, di := bb.room()
			for j, e := range n.Exprs {
				dst.Cols[j][di] = e(scratch)
			}
		}
	}
	ctx.Flush()
	return bb.finish()
}

// vecHashAgg aggregates the child's output. Parallel stages build
// partition-local aggTables straight from column vectors; the
// coordinator merges them and emits groups in deterministic (sorted)
// group order. Aggregate inputs are weighted by the child's nominal
// weight so SUM/COUNT reflect nominal cardinalities.
func vecHashAgg(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []*Batch) []*Batch {
	parts := stageDop(env, n)
	size := batchSize(env)
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}

	inParts := partitionBatches(in, n.Groups, parts, size)
	partials := make([]*aggTable, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		at := newAggTable(n.Groups, n.Aggs)
		var nrows int64
		for _, b := range inParts[part] {
			for i := 0; i < b.Rows(); i++ {
				ph := b.phys(i)
				accumulateCols(at.entCols(b.Cols, ph).state, n.Aggs, b.Cols, ph, weight)
			}
			nrows += int64(b.Rows())
		}
		w := nrows * weight
		ctx.CPU(float64(w) * ctx.Cost.AggIPR)
		// The group table's nominal footprint: groups are dimension-level
		// entities, so their nominal count scales with the group count,
		// not the input weight.
		groupBytes := int64(at.len()) * tupleBytes(env, n.Left)
		if groupBytes > 0 {
			region := env.M.ReserveRegion(groupBytes)
			ctx.TouchRandom(region, groupBytes, w, true, 4)
		}
		partials[part] = at
	})

	var totalGroups int64
	for _, at := range partials {
		if at != nil {
			totalGroups += int64(at.len())
		}
	}
	needBytes := totalGroups * tupleBytes(env, n.Left)
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		spill(p, env, n, st, overflow, 0)
	}

	ctx := env.newCtx(p, env.home())
	out := finalizeAggTables(partials, n.Groups, n.Aggs)
	ctx.CPU(float64(totalGroups) * ctx.Cost.AggIPR)
	ctx.Flush()
	return rowsToBatches(out, size)
}

// vecJoinTable is one partition's hash table over columnar build rows.
type vecJoinTable struct {
	cols    [][]int64
	buckets map[uint64][]int32
	rows    int32
}

// keysEqualColsAt compares key columns of two columnar rows.
func keysEqualColsAt(acols [][]int64, ak []int, ai int32, bcols [][]int64, bk []int, bi int32) bool {
	for i := range ak {
		if acols[ak[i]][ai] != bcols[bk[i]][bi] {
			return false
		}
	}
	return true
}

// vecHashJoin builds partitioned hash tables over the build (left) side
// and probes with the right side. The build side stays columnar in the
// hash table; inner matches are gathered column-wise into probe++build
// output batches. Exceeding the memory grant spills partitions to tempdb
// (charged as write+read of the spilled nominal bytes).
func vecHashJoin(p *sim.Proc, env *Env, n *Node, st *QueryStats, build, probe []*Batch) []*Batch {
	size := batchSize(env)
	rowBytes := tupleBytes(env, n.Left)
	needBytes := int64(batchRowCount(build)) * n.Left.Weight * rowBytes
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		probeBytes := int64(batchRowCount(probe)) * n.Right.Weight * tupleBytes(env, n.Right)
		spill(p, env, n, st, overflow, probeSpillShare(overflow, needBytes, probeBytes))
	}

	region := env.M.ReserveRegion(needBytes + 1)
	parts := stageDop(env, n)
	buildW := batchWidth(build)
	tables := make([]*vecJoinTable, parts)
	buildParts := partitionBatches(build, n.BuildKeys, parts, size)
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		jt := &vecJoinTable{cols: make([][]int64, buildW), buckets: make(map[uint64][]int32)}
		var nrows int64
		for _, b := range buildParts[part] {
			for i := 0; i < b.Rows(); i++ {
				ph := b.phys(i)
				h := hashCols(b.Cols, n.BuildKeys, ph)
				jt.buckets[h] = append(jt.buckets[h], jt.rows)
				for c := range jt.cols {
					jt.cols[c] = append(jt.cols[c], b.Cols[c][ph])
				}
				jt.rows++
			}
			nrows += int64(b.Rows())
		}
		w := nrows * n.Left.Weight
		ctx.CPU(float64(w) * ctx.Cost.HashBuildIPR)
		share := needBytes / int64(parts)
		if share < 1 {
			share = 1
		}
		ctx.TouchRandom(region+uint64(part)*uint64(share), share, w, true, 4)
		tables[part] = jt
	})

	probeW := batchWidth(probe)
	outW := probeW
	if n.JoinType == InnerJoin {
		outW = probeW + buildW
	}
	probeParts := partitionBatches(probe, n.ProbeKeys, parts, size)
	results := make([][]*Batch, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		jt := tables[part]
		if jt == nil {
			return // build stage was cut short by the deadline
		}
		var nrows int64
		for _, b := range probeParts[part] {
			nrows += int64(b.Rows())
		}
		w := nrows * n.Right.Weight
		ctx.CPU(float64(w) * ctx.Cost.HashProbeIPR)
		share := needBytes / int64(parts)
		if share < 1 {
			share = 1
		}
		ctx.TouchRandom(region+uint64(part)*uint64(share), share, w, false, 4)
		bb := newBatchBuilder(outW, size)
		for _, b := range probeParts[part] {
			for i := 0; i < b.Rows(); i++ {
				ph := b.phys(i)
				h := hashCols(b.Cols, n.ProbeKeys, ph)
				matched := false
				for _, bi := range jt.buckets[h] {
					if !keysEqualColsAt(jt.cols, n.BuildKeys, bi, b.Cols, n.ProbeKeys, ph) {
						continue
					}
					matched = true
					if n.JoinType == InnerJoin {
						dst, di := bb.room()
						for c := 0; c < probeW; c++ {
							dst.Cols[c][di] = b.Cols[c][ph]
						}
						for c := 0; c < buildW; c++ {
							dst.Cols[probeW+c][di] = jt.cols[c][bi]
						}
					} else {
						break
					}
				}
				switch n.JoinType {
				case SemiJoin:
					if matched {
						bb.appendBatchRow(b, ph)
					}
				case AntiJoin:
					if !matched {
						bb.appendBatchRow(b, ph)
					}
				}
			}
		}
		results[part] = bb.finish()
	})
	return flattenBatches(results)
}

// vecSort sorts a permutation over the compacted input instead of
// swapping rows: chunks of the permutation are stable-sorted in
// parallel, then k-way merged with the shared chunk-index tie-break, so
// the output order matches a stable serial sort for any DOP. Input
// larger than the grant spills sort runs to tempdb.
func vecSort(p *sim.Proc, env *Env, n *Node, st *QueryStats, in []*Batch) []*Batch {
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}
	cs := concatBatches(in)
	total := cs.n
	needBytes := int64(total) * weight * tupleBytes(env, n.Left)
	overflow := env.Grant.Reserve(needBytes)
	defer env.Grant.Release(needBytes - overflow)
	if overflow > 0 {
		spill(p, env, n, st, overflow, 0)
	}

	parts := stageDop(env, n)
	chunk := (total + parts - 1) / parts
	perm := make([]int32, total)
	for i := range perm {
		perm[i] = int32(i)
	}
	permChunks := make([][]int32, parts)
	for i := 0; i < parts; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if lo > total {
			lo = total
		}
		if hi > total {
			hi = total
		}
		permChunks[i] = perm[lo:hi]
	}
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		seg := permChunks[part]
		if len(seg) == 0 {
			return
		}
		sort.SliceStable(seg, func(i, j int) bool { return lessKeysAt(cs.cols, n.Keys, seg[i], seg[j]) })
		w := float64(int64(len(seg)) * weight)
		ctx.CPU(w * ctx.Cost.SortIPR * math.Log2(w+2))
		region := env.M.ReserveRegion(needBytes/int64(parts) + 1)
		ctx.TouchSeq(region, needBytes/int64(parts), true, 8)
	})
	merged := kwayMerge(permChunks, func(a, b int32) bool { return lessKeysAt(cs.cols, n.Keys, a, b) })
	ctx := env.newCtx(p, env.home())
	if parts > 1 {
		ctx.CPU(float64(int64(len(merged))*weight) * ctx.Cost.SortIPR)
	}
	ctx.Flush()
	return cs.gather(merged, batchSize(env))
}

// vecTop selects the limit smallest permutation indices with the shared
// bounded heap.
func vecTop(p *sim.Proc, env *Env, n *Node, in []*Batch) []*Batch {
	weight := n.Left.Weight
	if weight < 1 {
		weight = 1
	}
	ctx := env.newCtx(p, env.home())
	cs := concatBatches(in)
	limit := n.Limit
	if limit <= 0 || limit > cs.n {
		limit = cs.n
	}
	idx := topKIdx(cs.n, limit, func(i, j int32) bool { return lessKeysAt(cs.cols, n.Keys, i, j) })
	w := float64(int64(cs.n) * weight)
	ctx.CPU(w * ctx.Cost.SortIPR * math.Log2(float64(limit)+2))
	ctx.Flush()
	return cs.gather(idx, batchSize(env))
}
