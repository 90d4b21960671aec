package exec

import (
	"repro/internal/access"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// hashRow hashes the key columns of a row.
func hashRow(r Row, keys []int) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range keys {
		h ^= uint64(r[c])
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

// concatRows emits probe ++ build (the executor's join output layout).
func concatRows(probe, build Row) Row {
	out := make(Row, 0, len(probe)+len(build))
	out = append(out, probe...)
	out = append(out, build...)
	return out
}

func tupleBytes(env *Env, n *Node) int64 {
	b := n.RowBytes
	if b <= 0 {
		b = env.Cost.TupleBytes
	}
	return b + env.Cost.TupleBytes
}

// probeSpillShare estimates how many probe-side bytes respill alongside
// the overflowing build partitions.
func probeSpillShare(overflow, needBytes, probeBytes int64) int64 {
	if needBytes <= 0 {
		return 0
	}
	return int64(float64(probeBytes) * float64(overflow) / float64(needBytes))
}

// spill charges a tempdb round trip for overflowBytes of build data plus
// the proportional probe share: written once, read once, with extra
// per-byte CPU.
func spill(p *sim.Proc, env *Env, n *Node, st *QueryStats, buildBytes, probeBytes int64) {
	total := buildBytes + probeBytes
	st.Spills++
	st.SpillBytes += total
	env.Ctr.Spills++
	if s := metrics.StmtOf(p); s != nil {
		s.Spills++
	}
	ctx := env.newCtx(p, env.home())
	ctx.Flush()
	d := env.Dev.Write(p, total)
	d += env.Dev.Read(p, total)
	ctx.WaitIO(d)
	ctx.TouchSeq(env.TempRegion, total, true, 8)
	ctx.CPU(float64(total) / 64 * 3)
	ctx.Flush()
}

// runNLIndexJoin probes the inner index once per outer row; matches fetch
// the inner base row. Parallel plans partition the outer rows.
func runNLIndexJoin(p *sim.Proc, env *Env, n *Node, st *QueryStats, outer []Row) []Row {
	ix := n.Index
	t := ix.Table
	heap := access.Heap{T: t}
	parts := stageDop(env, n)
	chunks := chunkRows(outer, parts)
	results := make([][]Row, parts)
	env.parallel(p, parts, func(ctx *access.Ctx, part int) {
		var out []Row
		for _, or := range chunks[part] {
			key := n.probeKeyOf(or)
			matches := ix.LookupAll(key)
			// Position the probe at the first match's nominal location
			// (or a key-derived location on a miss).
			var nid int64
			if len(matches) > 0 {
				nid = matches[0] * t.K
			} else {
				nid = int64(hashRow(or, n.OuterKeys) % uint64(maxI64(t.NominalRows(), 1)))
			}
			ix.Probe(ctx, key, nid, false)
			matched := len(matches) > 0
			switch n.JoinType {
			case SemiJoin:
				if matched {
					out = append(out, or)
				}
				continue
			case AntiJoin:
				if !matched {
					out = append(out, or)
				}
				continue
			}
			for _, m := range matches {
				if len(n.InnerProj) > 0 && !ix.Clustered {
					// Non-covering: fetch the base row.
					heap.ProbePoint(ctx, m*t.K, false)
				}
				inner := make(Row, len(n.InnerProj))
				for i, c := range n.InnerProj {
					inner[i] = t.Get(m, c)
				}
				out = append(out, concatRows(or, inner))
			}
		}
		results[part] = out
	})
	return flatten(results)
}

func chunkRows(rows []Row, parts int) [][]Row {
	if parts <= 1 {
		return [][]Row{rows}
	}
	out := make([][]Row, parts)
	chunk := (len(rows) + parts - 1) / parts
	for i := 0; i < parts; i++ {
		lo := i * chunk
		hi := lo + chunk
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		out[i] = rows[lo:hi]
	}
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
