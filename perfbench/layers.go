package main

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// selfLayers are the modules whose share of the traced run's CPU
// samples is reported as <module>.self_frac.
var selfLayers = []string{
	"sim", "cache", "hw", "buffer", "wal", "lock", "txn", "btree", "access",
	"exec", "engine", "metrics", "workload", "proto", "net", "serve", "client",
}

// phase is a phase timer's delta over one traced iteration.
func phase(it iteration, name string) sim.ProfStat {
	for _, p := range it.phases {
		if p.Name == name {
			return p
		}
	}
	return sim.ProfStat{Name: name}
}

func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func waitMs(c metrics.Counters, class metrics.WaitClass) float64 {
	return float64(c.WaitNs[class]) / float64(sim.Millisecond)
}

// perLayer is the traced run's metrics: CPU self time per module from
// the profiles, the simulator's phase-timer counts, and the simulated
// counters each layer exposes. Counts are per simulated run (warmup,
// measure and drain); every traced repeat has the same ones.
func perLayer(plain, traced []iteration) (map[string]metric, error) {
	var stacks []stack
	for _, it := range traced {
		s, err := parseProfile(it.profile)
		if err != nil {
			return nil, err
		}
		stacks = append(stacks, s...)
	}
	a := attribute(stacks)
	last := traced[len(traced)-1]
	o, c := last.out, last.out.ctr

	m := map[string]metric{}
	for _, l := range selfLayers {
		m[l+".self_frac"] = metric{a.frac(l), "frac"}
	}
	// Modules outside selfLayers (storage, iodev, opt, ...), so that the
	// shares, gc.frac and trace.unattributed_frac sum to 1.
	var otherNs int64
	for l, ns := range a.byLayer {
		if _, listed := m[l+".self_frac"]; !listed && l != "gc" && l != "" {
			otherNs += ns
		}
	}
	m["other.self_frac"] = metric{ratio(otherNs, a.totalNs), "frac"}
	resumes := phase(last, "sim.proc").Calls
	llc := phase(last, "cache.llc")
	simNsPerIter := float64(a.byLayer["sim"]) / float64(len(traced))
	wallTraced := medianOf(traced, func(it iteration) float64 { return it.wallS })
	wallPlain := medianOf(plain, func(it iteration) float64 { return it.wallS })
	for k, v := range map[string]metric{
		"sim.resumes":       {float64(resumes), "count"},
		"sim.ns_per_resume": {ratio(simNsPerIter, float64(resumes)), "ns"},

		"cache.batches":      {float64(llc.Calls), "count"},
		"cache.ns_per_batch": {ratio(llc.WallNs, llc.Calls), "ns"},
		"cache.miss_ratio":   {ratio(c.LLCMisses, c.LLCAccesses), "frac"},

		"hw.exec_calls":  {float64(phase(last, "hw.exec").Calls), "count"},
		"hw.cpu_wait_ms": {waitMs(c, metrics.WaitCPU), "ms"},

		"buffer.hit_ratio":     {ratio(c.BufferHits, c.BufferHits+c.BufferMisses), "frac"},
		"buffer.evictions":     {float64(o.evictions), "count"},
		"buffer.io_wait_ms":    {waitMs(c, metrics.WaitPageIOLatch), "ms"},
		"wal.flushes":          {float64(o.flushes), "count"},
		"wal.bytes_per_commit": {ratio(o.walBytes, c.TxnCommits), "B"},
		"wal.wait_ms":          {waitMs(c, metrics.WaitWriteLog), "ms"},
		"lock.wait_ms":         {waitMs(c, metrics.WaitLock), "ms"},
		"lock.latch_wait_ms":   {waitMs(c, metrics.WaitLatch), "ms"},
		"txn.commits":          {float64(c.TxnCommits), "count"},
		"txn.aborts":           {float64(c.TxnAborts), "count"},

		"exec.queries":       {float64(c.QueriesDone), "count"},
		"exec.spills":        {float64(c.Spills), "count"},
		"exec.grant_wait_ms": {waitMs(c, metrics.WaitResourceSem), "ms"},

		"serve.accepted": {float64(o.srvCtr.Accepted), "count"},
		"serve.degraded": {float64(o.srvCtr.Degraded), "count"},
		"serve.shed":     {float64(o.srvCtr.Shed), "count"},

		"gc.frac":   {a.frac("gc"), "frac"},
		"gc.cycles": {medianOf(traced, func(it iteration) float64 { return float64(it.gcCycles) }), "count"},

		"trace.overhead_frac":     {wallTraced/wallPlain - 1, "frac"},
		"trace.unattributed_frac": {a.frac(""), "frac"},

		"fail_frac": {ratio(o.failed, o.attempted), "frac"},
	} {
		m[k] = v
	}
	return m, nil
}
