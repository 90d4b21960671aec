package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// digest fingerprints a run's simulated outputs: the cumulative engine
// counters, the per-template query statistics and the opLog sum over
// every operation's completion time, latency and outcome (the serving
// samples on serve-storm). All are integers formatted field by field, so
// equal simulations give equal digests on any host.
func digest(o outcome) string {
	h := sha256.New()
	fmt.Fprintf(h, "counters %+v\n", o.ctr)
	fmt.Fprintf(h, "wal %d %d buffer %d serve %+v\n", o.flushes, o.walBytes, o.evictions, o.srvCtr)
	for _, r := range o.qstats {
		fmt.Fprintf(h, "query %+v\n", r)
	}
	fmt.Fprintf(h, "ops %x\n", o.opSum)
	return hex.EncodeToString(h.Sum(nil))
}

// defaultSeed is the seed whose digests the benchmark records.
const defaultSeed = 1

// recordedDigests are the outputs at defaultSeed. A change that only
// speeds up the simulator leaves them identical; a change that alters
// the model must record new ones.
var recordedDigests = map[string]string{
	"olap-scan":   "492adb1a7ef1989885fdcfc44a67c5f5d19f89a944c8671aca4b4963cd055d94",
	"oltp-rw":     "f398fdc23d8867e4c01cff35e26ffef2b9a20273af5c96ce7754b7aa42207138",
	"serve-storm": "fcc9245a7d44a8565e31682270be95eefef6d7b16c170415f9a3623ec1887981",
}

// checkDigests returns why the digests of repeated runs at one seed are
// not acceptable, or "" if they are: every run must give the same
// digest, and at defaultSeed it must be the recorded one.
func checkDigests(workload string, seed int64, digests []string) string {
	if len(digests) == 0 {
		return "no runs"
	}
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Sprintf("run %d digest %s differs from run 0 digest %s", i, d, digests[0])
		}
	}
	if seed == defaultSeed && digests[0] != recordedDigests[workload] {
		return fmt.Sprintf("digest %s differs from the recorded %s", digests[0], recordedDigests[workload])
	}
	return ""
}
