package exec

// This file defines the column-vector batch representation the
// vectorized engine (vecrun.go) operates on. A Batch holds Width()
// columns of equal physical length plus an optional selection vector
// listing the live rows, so a filter can narrow a batch by attaching a
// selection instead of copying column data. Operators that materialize
// (builders, partitioners) always emit compact batches (Sel == nil).

// Batch is one fixed-capacity column-vector batch.
type Batch struct {
	Cols [][]int64 // one slice per output column, equal lengths
	Sel  []int32   // live physical rows, in order; nil = all rows live
	n    int       // physical rows (column length, even for zero-width batches)
}

// Width returns the column count.
func (b *Batch) Width() int { return len(b.Cols) }

// Rows returns the live row count.
func (b *Batch) Rows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// phys maps a live row ordinal to its physical row index.
func (b *Batch) phys(i int) int32 {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return int32(i)
}

// batchSize returns the execution batch capacity in rows.
func batchSize(env *Env) int {
	if env.Cost != nil && env.Cost.BatchRows > 0 {
		return int(env.Cost.BatchRows)
	}
	return 1024
}

// batchRowCount sums live rows across batches.
func batchRowCount(bs []*Batch) int {
	total := 0
	for _, b := range bs {
		total += b.Rows()
	}
	return total
}

// batchWidth returns the column count of a batch list (0 when empty; the
// width only matters once there are rows).
func batchWidth(bs []*Batch) int {
	if len(bs) == 0 {
		return 0
	}
	return bs[0].Width()
}

// batchBuilder accumulates rows into compact fixed-size batches.
type batchBuilder struct {
	width, size int
	cur         *Batch
	done        []*Batch
	rows        int // total rows appended
}

func newBatchBuilder(width, size int) *batchBuilder {
	if size < 1 {
		size = 1
	}
	return &batchBuilder{width: width, size: size}
}

// ensure returns the current batch with room for at least one more row.
func (bb *batchBuilder) ensure() *Batch {
	if bb.cur == nil || bb.cur.n == bb.size {
		bb.seal()
		cols := make([][]int64, bb.width)
		for i := range cols {
			cols[i] = make([]int64, bb.size)
		}
		bb.cur = &Batch{Cols: cols}
	}
	return bb.cur
}

// seal closes the in-progress batch, trimming columns to the fill level.
func (bb *batchBuilder) seal() {
	if bb.cur != nil && bb.cur.n > 0 {
		for i := range bb.cur.Cols {
			bb.cur.Cols[i] = bb.cur.Cols[i][:bb.cur.n]
		}
		bb.done = append(bb.done, bb.cur)
	}
	bb.cur = nil
}

// room returns the write target for one new row: the batch and the
// physical index the caller fills every column at.
func (bb *batchBuilder) room() (*Batch, int) {
	b := bb.ensure()
	i := b.n
	b.n++
	bb.rows++
	return b, i
}

// appendBatchRow copies physical row phys of src.
func (bb *batchBuilder) appendBatchRow(src *Batch, phys int32) {
	dst, i := bb.room()
	for c := range dst.Cols {
		dst.Cols[c][i] = src.Cols[c][phys]
	}
}

// appendSrcRange bulk-copies rows [lo,hi) where builder column c reads
// src[c][r] — the scan fast path that never materializes rows.
func (bb *batchBuilder) appendSrcRange(src [][]int64, lo, hi int) {
	for lo < hi {
		b := bb.ensure()
		run := bb.size - b.n
		if run > hi-lo {
			run = hi - lo
		}
		for c := range b.Cols {
			copy(b.Cols[c][b.n:b.n+run], src[c][lo:lo+run])
		}
		b.n += run
		bb.rows += run
		lo += run
	}
}

// finish seals and returns the accumulated batches (nil when no rows).
func (bb *batchBuilder) finish() []*Batch {
	bb.seal()
	return bb.done
}

// rowsToBatches repacks materialized rows into compact batches; the
// bridge into the batch engine for row-only operators.
func rowsToBatches(rows []Row, size int) []*Batch {
	if len(rows) == 0 {
		return nil
	}
	bb := newBatchBuilder(len(rows[0]), size)
	for _, r := range rows {
		dst, i := bb.room()
		for c := range dst.Cols {
			dst.Cols[c][i] = r[c]
		}
	}
	return bb.finish()
}

// batchesToRows materializes batches as rows; the bridge out of the
// batch engine (and the final result conversion).
func batchesToRows(bs []*Batch) []Row {
	total := batchRowCount(bs)
	if total == 0 {
		return nil
	}
	out := make([]Row, 0, total)
	for _, b := range bs {
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			r := make(Row, len(b.Cols))
			for c := range b.Cols {
				r[c] = b.Cols[c][ph]
			}
			out = append(out, r)
		}
	}
	return out
}

// hashCols hashes key columns at one physical row.
func hashCols(cols [][]int64, keys []int, phys int32) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range keys {
		h ^= uint64(cols[c][phys])
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// partitionBatches hash-partitions batches by key columns, preserving
// input order within each partition.
func partitionBatches(bs []*Batch, keys []int, parts, size int) [][]*Batch {
	if parts <= 1 {
		return [][]*Batch{bs}
	}
	width := batchWidth(bs)
	builders := make([]*batchBuilder, parts)
	for i := range builders {
		builders[i] = newBatchBuilder(width, size)
	}
	for _, b := range bs {
		for i := 0; i < b.Rows(); i++ {
			ph := b.phys(i)
			pt := int(hashCols(b.Cols, keys, ph) % uint64(parts))
			builders[pt].appendBatchRow(b, ph)
		}
	}
	out := make([][]*Batch, parts)
	for i, bb := range builders {
		out[i] = bb.finish()
	}
	return out
}

// flattenBatches concatenates per-partition batch lists in partition
// order (the vectorized analogue of flatten).
func flattenBatches(parts [][]*Batch) []*Batch {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]*Batch, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// colset is a single compacted columnar buffer; sort and top compact
// their input into one to permute it by index.
type colset struct {
	cols [][]int64
	n    int
}

// concatBatches compacts batches into one colset, dropping selections.
func concatBatches(bs []*Batch) *colset {
	total := batchRowCount(bs)
	width := batchWidth(bs)
	cs := &colset{cols: make([][]int64, width), n: total}
	for c := range cs.cols {
		cs.cols[c] = make([]int64, total)
	}
	pos := 0
	for _, b := range bs {
		if b.Sel == nil {
			for c := range cs.cols {
				copy(cs.cols[c][pos:], b.Cols[c])
			}
			pos += b.n
		} else {
			for _, ph := range b.Sel {
				for c := range cs.cols {
					cs.cols[c][pos] = b.Cols[c][ph]
				}
				pos++
			}
		}
	}
	return cs
}

// gather emits the colset's rows in perm order as compact batches.
func (cs *colset) gather(perm []int32, size int) []*Batch {
	bb := newBatchBuilder(len(cs.cols), size)
	for _, ph := range perm {
		dst, i := bb.room()
		for c := range dst.Cols {
			dst.Cols[c][i] = cs.cols[c][ph]
		}
	}
	return bb.finish()
}

// lessKeysAt compares two physical rows of a colset by sort keys.
func lessKeysAt(cols [][]int64, keys []SortKey, a, b int32) bool {
	for _, k := range keys {
		av, bv := cols[k.Col][a], cols[k.Col][b]
		if av == bv {
			continue
		}
		if k.Desc {
			return av > bv
		}
		return av < bv
	}
	return false
}
