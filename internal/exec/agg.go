package exec

import (
	"math"
	"sort"
)

// aggWidth returns the state slots an aggregate needs.
func aggWidth(k AggKind) int {
	if k == AggAvg {
		return 2 // sum, count
	}
	return 1
}

type groupEnt struct {
	key   Row
	state []int64
	seen  bool
}

// maxInlineGroupCols is the widest group-by the fixed-width array key
// covers; wider keys fall back to the byte-string encoding.
const maxInlineGroupCols = 4

// inlineKey is a fixed-width group key: group column values padded with
// zeros. Comparable, so it indexes a map without allocating per row.
type inlineKey [maxInlineGroupCols]int64

// encodeKey builds a map key from group columns (the fallback for
// group-bys wider than maxInlineGroupCols; allocates per call).
func encodeKey(r Row, groups []int) string {
	b := make([]byte, 0, len(groups)*8)
	for _, c := range groups {
		v := uint64(r[c])
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return string(b)
}

// aggTable is a group hash table keeping entries in insertion order.
// Narrow group-bys use a fixed-width array key, so looking up an
// existing group allocates nothing.
type aggTable struct {
	groups []int
	aggs   []AggSpec
	inline map[inlineKey]int32
	wide   map[string]int32
	ents   []*groupEnt
}

func newAggTable(groups []int, aggs []AggSpec) *aggTable {
	t := &aggTable{groups: groups, aggs: aggs}
	if len(groups) <= maxInlineGroupCols {
		t.inline = make(map[inlineKey]int32)
	} else {
		t.wide = make(map[string]int32)
	}
	return t
}

// len is nil-safe: a partition skipped by the deadline leaves a nil table.
func (t *aggTable) len() int {
	if t == nil {
		return 0
	}
	return len(t.ents)
}

// entCols returns the group entry of physical row phys, creating it on
// first sight; group values come from cols[groups[i]][phys].
func (t *aggTable) entCols(cols [][]int64, phys int32) *groupEnt {
	if t.inline != nil {
		var k inlineKey
		for i, c := range t.groups {
			k[i] = cols[c][phys]
		}
		if ix, ok := t.inline[k]; ok {
			return t.ents[ix]
		}
		key := make(Row, len(t.groups))
		for i, c := range t.groups {
			key[i] = cols[c][phys]
		}
		g := &groupEnt{key: key, state: newAggState(t.aggs)}
		t.inline[k] = int32(len(t.ents))
		t.ents = append(t.ents, g)
		return g
	}
	key := make(Row, len(t.groups))
	for i, c := range t.groups {
		key[i] = cols[c][phys]
	}
	return t.adopt(&groupEnt{key: key, state: newAggState(t.aggs)})
}

// adopt folds g (whose key is an already-projected group row) into the
// table: absorbed into an existing entry, or inserted as-is. Returns the
// table's entry for g's key.
func (t *aggTable) adopt(g *groupEnt) *groupEnt {
	if t.inline != nil {
		var k inlineKey
		copy(k[:], g.key)
		if ix, ok := t.inline[k]; ok {
			d := t.ents[ix]
			mergeState(d.state, g.state, t.aggs)
			return d
		}
		t.inline[k] = int32(len(t.ents))
		t.ents = append(t.ents, g)
		return g
	}
	k := encodeKey(g.key, seqInts(len(g.key)))
	if ix, ok := t.wide[k]; ok {
		d := t.ents[ix]
		mergeState(d.state, g.state, t.aggs)
		return d
	}
	t.wide[k] = int32(len(t.ents))
	t.ents = append(t.ents, g)
	return g
}

// adoptAll merges a partition-local table into t.
func (t *aggTable) adoptAll(src *aggTable) {
	for _, g := range src.ents {
		t.adopt(g)
	}
}

func newAggState(aggs []AggSpec) []int64 {
	w := 0
	for _, a := range aggs {
		w += aggWidth(a.Kind)
	}
	st := make([]int64, w)
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggMin:
			st[i] = math.MaxInt64
		case AggMax:
			st[i] = math.MinInt64
		}
		i += aggWidth(a.Kind)
	}
	return st
}

func accumulate(st []int64, aggs []AggSpec, r Row, weight int64) {
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggSum:
			st[i] += r[a.Col] * weight
		case AggCount:
			st[i] += weight
		case AggMin:
			if r[a.Col] < st[i] {
				st[i] = r[a.Col]
			}
		case AggMax:
			if r[a.Col] > st[i] {
				st[i] = r[a.Col]
			}
		case AggAvg:
			st[i] += r[a.Col] * weight
			st[i+1] += weight
		}
		i += aggWidth(a.Kind)
	}
}

// accumulateCols is the columnar twin of accumulate.
func accumulateCols(st []int64, aggs []AggSpec, cols [][]int64, phys int32, weight int64) {
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggSum:
			st[i] += cols[a.Col][phys] * weight
		case AggCount:
			st[i] += weight
		case AggMin:
			if v := cols[a.Col][phys]; v < st[i] {
				st[i] = v
			}
		case AggMax:
			if v := cols[a.Col][phys]; v > st[i] {
				st[i] = v
			}
		case AggAvg:
			st[i] += cols[a.Col][phys] * weight
			st[i+1] += weight
		}
		i += aggWidth(a.Kind)
	}
}

func mergeState(dst, src []int64, aggs []AggSpec) {
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggSum, AggCount:
			dst[i] += src[i]
		case AggMin:
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		case AggMax:
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		case AggAvg:
			dst[i] += src[i]
			dst[i+1] += src[i+1]
		}
		i += aggWidth(a.Kind)
	}
}

func finalize(key Row, st []int64, aggs []AggSpec) Row {
	out := make(Row, 0, len(key)+len(aggs))
	out = append(out, key...)
	i := 0
	for _, a := range aggs {
		switch a.Kind {
		case AggAvg:
			if st[i+1] > 0 {
				out = append(out, st[i]/st[i+1])
			} else {
				out = append(out, 0)
			}
		default:
			v := st[i]
			if a.Kind == AggMin && v == math.MaxInt64 {
				v = 0
			}
			if a.Kind == AggMax && v == math.MinInt64 {
				v = 0
			}
			out = append(out, v)
		}
		i += aggWidth(a.Kind)
	}
	return out
}

// finalizeAggTables merges partition-local tables, emits finalized
// groups in deterministic (sorted) group order, and handles the scalar
// aggregate over an empty input (one zero row).
func finalizeAggTables(partials []*aggTable, groups []int, aggs []AggSpec) []Row {
	merged := newAggTable(groups, aggs)
	for _, t := range partials {
		if t != nil {
			merged.adoptAll(t)
		}
	}
	if len(groups) == 0 && merged.len() == 0 {
		return []Row{finalize(nil, newAggState(aggs), aggs)}
	}
	out := make([]Row, 0, merged.len())
	for _, g := range merged.ents {
		out = append(out, finalize(g.key, g.state, aggs))
	}
	ng := len(groups)
	sort.Slice(out, func(i, j int) bool {
		for c := 0; c < ng; c++ {
			if out[i][c] != out[j][c] {
				return out[i][c] < out[j][c]
			}
		}
		return false
	})
	return out
}
