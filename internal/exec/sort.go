package exec

import (
	"container/heap"
	"sort"
)

// mergeHead is one chunk's read position inside the merge heap.
type mergeHead struct {
	chunk int
	pos   int
}

// mergeHeap is a container/heap k-way merge state over sorted chunks:
// the root is the smallest head element, with equal keys resolved by the
// lower chunk index so the merge is deterministic for any DOP.
type mergeHeap[T any] struct {
	heads  []mergeHead
	chunks [][]T
	less   func(a, b T) bool
}

func (h *mergeHeap[T]) Len() int { return len(h.heads) }

func (h *mergeHeap[T]) Less(i, j int) bool {
	a, b := h.heads[i], h.heads[j]
	av, bv := h.chunks[a.chunk][a.pos], h.chunks[b.chunk][b.pos]
	if h.less(av, bv) {
		return true
	}
	if h.less(bv, av) {
		return false
	}
	return a.chunk < b.chunk
}

func (h *mergeHeap[T]) Swap(i, j int) { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }

func (h *mergeHeap[T]) Push(x any) { h.heads = append(h.heads, x.(mergeHead)) }

func (h *mergeHeap[T]) Pop() any {
	old := h.heads
	x := old[len(old)-1]
	h.heads = old[:len(old)-1]
	return x
}

// kwayMerge merges k sorted chunks in O(n log k). A single non-empty
// chunk is returned as-is (the serial fast path).
func kwayMerge[T any](chunks [][]T, less func(a, b T) bool) []T {
	total, nonEmpty, last := 0, 0, -1
	for i, c := range chunks {
		total += len(c)
		if len(c) > 0 {
			nonEmpty++
			last = i
		}
	}
	if nonEmpty == 0 {
		return make([]T, 0)
	}
	if nonEmpty == 1 {
		return chunks[last]
	}
	h := &mergeHeap[T]{chunks: chunks, less: less}
	for i, c := range chunks {
		if len(c) > 0 {
			h.heads = append(h.heads, mergeHead{chunk: i})
		}
	}
	heap.Init(h)
	out := make([]T, 0, total)
	for h.Len() > 0 {
		hd := h.heads[0]
		out = append(out, chunks[hd.chunk][hd.pos])
		hd.pos++
		if hd.pos < len(chunks[hd.chunk]) {
			h.heads[0] = hd
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// topHeap is a bounded max-heap of candidate indices under a total
// order: the root is the worst retained candidate, so a better incoming
// element replaces it in O(log limit).
type topHeap struct {
	idx    []int32
	before func(i, j int32) bool
}

func (h *topHeap) Len() int           { return len(h.idx) }
func (h *topHeap) Less(i, j int) bool { return h.before(h.idx[j], h.idx[i]) }
func (h *topHeap) Swap(i, j int)      { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *topHeap) Push(x any)         { h.idx = append(h.idx, x.(int32)) }
func (h *topHeap) Pop() any {
	old := h.idx
	x := old[len(old)-1]
	h.idx = old[:len(old)-1]
	return x
}

// topKIdx returns the indices of the limit smallest of n elements under
// less, ties broken toward the lower index (the stable order), sorted
// ascending. limit >= n degenerates to a full index sort; the bounded
// branch does O(n log limit) comparisons, matching the Top operator's
// charged cost.
func topKIdx(n, limit int, less func(i, j int32) bool) []int32 {
	if limit > n {
		limit = n
	}
	if limit <= 0 {
		return nil
	}
	before := func(i, j int32) bool {
		if less(i, j) {
			return true
		}
		if less(j, i) {
			return false
		}
		return i < j
	}
	var idx []int32
	if limit == n {
		idx = make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
	} else {
		h := &topHeap{idx: make([]int32, 0, limit), before: before}
		for i := 0; i < limit; i++ {
			h.idx = append(h.idx, int32(i))
		}
		heap.Init(h)
		for i := limit; i < n; i++ {
			if before(int32(i), h.idx[0]) {
				h.idx[0] = int32(i)
				heap.Fix(h, 0)
			}
		}
		idx = h.idx
	}
	sort.Slice(idx, func(a, b int) bool { return before(idx[a], idx[b]) })
	return idx
}
