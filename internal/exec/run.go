package exec

import "repro/internal/sim"

// Run executes a physical plan on the batch engine (vecrun.go) and
// returns its result rows and stats. It blocks the calling proc (the
// session) until the query completes.
func Run(p *sim.Proc, env *Env, root *Node) ([]Row, QueryStats) {
	st := QueryStats{GrantBytes: grantBytes(env.Grant)}
	rows := batchesToRows(runNodeVec(p, env, root, &st))
	st.OutRows = len(rows)
	st.UsedBytes = env.Grant.Used()
	// Collect failures: the coordinator's own sticky error plus anything
	// workers deposited via noteFail. A killed or failed query yields no
	// rows; the failure is re-deposited on the coordinator proc for the
	// engine to surface as a typed QueryError.
	if err := p.TakeFail(); err != nil {
		env.noteFail(err)
	}
	st.Killed = env.killed
	if env.ioErr != nil {
		p.SetFail(env.ioErr)
	}
	if env.killed || env.ioErr != nil {
		rows = nil
		st.OutRows = 0
	}
	return rows, st
}

func grantBytes(g *Grant) int64 {
	if g == nil {
		return 0
	}
	return g.Bytes
}

// stageDop returns the partition count for a node: parallel nodes use the
// plan DOP, serial nodes 1.
func stageDop(env *Env, n *Node) int {
	if !n.Parallel {
		return 1
	}
	return env.EffectiveDop()
}

func project(row Row, proj []int) Row {
	out := make(Row, len(proj))
	for i, c := range proj {
		out[i] = row[c]
	}
	return out
}

func flatten(parts [][]Row) []Row {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Row, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
