// Package digest defines the executor's result digests. The operator
// cases in internal/exec and the TPC-H queries in internal/workload/tpch
// are both gated on committed digest files in this one format.
package digest

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
)

// Result renders one query result as a digest: an FNV-1a hash over the
// rows in order (each row's width, then its values) and the OutRows,
// Spills, and SpillBytes stats.
func Result(rows [][]int64, outRows, spills int, spillBytes int64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range rows {
		put(uint64(len(r)))
		for _, v := range r {
			put(uint64(v))
		}
	}
	return fmt.Sprintf("%016x rows=%d spills=%d spill_bytes=%d", h.Sum64(), outRows, spills, spillBytes)
}

// Load reads a digest file: one "<name> <digest>" line per case.
func Load(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		name, d, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		out[name] = d
	}
	return out, nil
}
