package cache

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refLLC is the reference model of TestLLCMatchesReference: the direct
// form of the LLC, with per-set [][] slices and an age stamp per way,
// evicting the minimum age among the masked ways. Its sampling code is
// the LLC's own, line for line. Keep it plain; do not optimise it.
type refLLC struct {
	cfg     Config
	simSets int
	mask    uint64 // CAT way mask: bit i set => way i may be allocated into

	tags  [][]uint64
	valid [][]bool
	dirty [][]bool
	// age is a per-set monotonically increasing stamp; larger = more recent.
	age   [][]uint64
	stamp uint64

	stats Stats
}

func newRef(cfg Config) *refLLC {
	if cfg.SetSample < 1 {
		cfg.SetSample = 1
	}
	sets := int(cfg.SizeBytes / int64(LineBytes*cfg.Ways))
	if sets < 1 {
		sets = 1
	}
	simSets := sets / cfg.SetSample
	if simSets < 1 {
		simSets = 1
	}
	c := &refLLC{
		cfg:     cfg,
		simSets: simSets,
		mask:    (uint64(1) << uint(cfg.Ways)) - 1,
	}
	c.tags = make([][]uint64, simSets)
	c.valid = make([][]bool, simSets)
	c.dirty = make([][]bool, simSets)
	c.age = make([][]uint64, simSets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.dirty[i] = make([]bool, cfg.Ways)
		c.age[i] = make([]uint64, cfg.Ways)
	}
	return c
}

// SetWayMask installs a CAT allocation mask. Bits beyond the way count are
// ignored; an empty mask is treated as the lowest single way (hardware
// forbids an empty COS mask).
func (c *refLLC) SetWayMask(mask uint64) {
	mask &= (uint64(1) << uint(c.cfg.Ways)) - 1
	if mask == 0 {
		mask = 1
	}
	c.mask = mask
}

// WayMask returns the current allocation mask.
func (c *refLLC) WayMask() uint64 { return c.mask }

// WayBytes returns the capacity of a single way.
func (c *refLLC) WayBytes() int64 { return c.cfg.SizeBytes / int64(c.cfg.Ways) }

// AllocatedBytes returns the capacity covered by the current mask.
func (c *refLLC) AllocatedBytes() int64 {
	return int64(c.AllocatedWays()) * c.WayBytes()
}

// AllocatedWays returns the way count in the current mask — the COS
// (class-of-service) width, used to label per-COS telemetry series.
func (c *refLLC) AllocatedWays() int {
	n := 0
	for m := c.mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Flush invalidates the entire cache (the paper reboots between the
// largest and smallest allocation to shed out-of-mask residue).
func (c *refLLC) Flush() {
	for i := range c.valid {
		for j := range c.valid[i] {
			c.valid[i][j] = false
			c.dirty[i][j] = false
		}
	}
}

func (c *refLLC) Stats() Stats { return c.stats }

func (c *refLLC) ResetStats() { c.stats = Stats{} }

// accessLine simulates one sampled line access and returns (miss, writeback).
// Sampled lines are multiples of SetSample; dividing by the sampling factor
// before taking the set index makes consecutive sampled lines sweep the
// simulated sets round-robin, mirroring the balanced set mapping of real
// hardware for sequential data.
func (c *refLLC) accessLine(line uint64, write bool) (bool, bool) {
	s := int((line / uint64(c.cfg.SetSample)) % uint64(c.simSets))
	tag := line
	c.stamp++
	// Lookup searches all ways: CAT does not restrict hits.
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[s][w] && c.tags[s][w] == tag {
			c.age[s][w] = c.stamp
			if write {
				c.dirty[s][w] = true
			}
			return false, false
		}
	}
	// Miss: fill into an allowed way, evicting LRU among allowed ways.
	victim, oldest := -1, ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.mask&(1<<uint(w)) == 0 {
			continue
		}
		if !c.valid[s][w] {
			victim = w
			break
		}
		if c.age[s][w] < oldest {
			oldest = c.age[s][w]
			victim = w
		}
	}
	wb := false
	if victim >= 0 {
		wb = c.valid[s][victim] && c.dirty[s][victim]
		c.tags[s][victim] = tag
		c.valid[s][victim] = true
		c.dirty[s][victim] = write
		c.age[s][victim] = c.stamp
	}
	return true, wb
}

// record folds simulated results back into scaled stats.
func (c *refLLC) record(total, simulated, misses, wbs int64) Stats {
	if simulated == 0 {
		return Stats{Accesses: total}
	}
	scale := float64(total) / float64(simulated)
	st := Stats{
		Accesses:   total,
		Misses:     int64(float64(misses)*scale + 0.5),
		Writebacks: int64(float64(wbs)*scale + 0.5),
	}
	c.stats.Add(st)
	return st
}

// Sequential simulates a sequential touch of length bytes starting at byte
// address base and returns scaled counters. Sampled lines are those whose
// global line number is a multiple of SetSample, so repeated scans of the
// same region observe their own reuse.
func (c *refLLC) Sequential(base uint64, bytes int64, write bool) Stats {
	if bytes <= 0 {
		return Stats{}
	}
	lines := (bytes + LineBytes - 1) / LineBytes
	start := base / LineBytes
	ss := uint64(c.cfg.SetSample)
	first := (start + ss - 1) / ss * ss // first sampled line >= start
	sampledAvail := int64(0)
	if first < start+uint64(lines) {
		sampledAvail = int64((start + uint64(lines) - first + ss - 1) / ss)
	}
	if sampledAvail == 0 {
		// Touch too small to include a sampled line; probe the nearest
		// sampled representative so tiny hot structures still exercise
		// the model.
		m, w := c.accessLine(start/ss*ss, write)
		var misses, wbs int64
		if m {
			misses++
		}
		if w {
			wbs++
		}
		return c.record(lines, 1, misses, wbs)
	}
	streaming := bytes > 2*c.AllocatedBytes()
	limit := int64(maxSimNonStreaming)
	if streaming {
		limit = maxSimPerTouch
	}
	step := ss
	if sampledAvail > limit {
		step = ss * uint64((sampledAvail+limit-1)/limit)
	}
	var misses, wbs, simulated int64
	for line := first; line < start+uint64(lines); line += step {
		m, w := c.accessLine(line, write)
		simulated++
		if m {
			misses++
		}
		if w {
			wbs++
		}
	}
	if step > ss && streaming {
		// Capped streaming touch: the walk above ages the cache, but its
		// sub-rate sampling would overstate reuse on revisits. A region
		// far larger than the allocation cannot be retained, so count the
		// stream as missing throughout. A streamed write dirties every
		// line and each is eventually evicted, so it writes back in full;
		// a streamed read writes back whatever dirty data it displaces.
		swbs := scaleBy(wbs, lines, simulated)
		if write {
			swbs = lines
		}
		return c.record2(lines, lines, swbs)
	}
	return c.record(lines, simulated, misses, wbs)
}

// record2 records pre-scaled stats.
func (c *refLLC) record2(accesses, misses, wbs int64) Stats {
	st := Stats{Accesses: accesses, Misses: misses, Writebacks: wbs}
	c.stats.Add(st)
	return st
}

// Strided simulates count accesses starting at base separated by
// strideBytes (e.g. reading one column out of wide rows). Sampling picks
// every SetSample-th visited element, which keeps repeated identical scans
// consistent with each other.
func (c *refLLC) Strided(base uint64, count int64, strideBytes int64, write bool) Stats {
	if count <= 0 {
		return Stats{}
	}
	if strideBytes < LineBytes {
		strideBytes = LineBytes
	}
	strideLines := uint64(strideBytes / LineBytes)
	start := base / LineBytes
	ss := int64(c.cfg.SetSample)
	sampledAvail := count / ss
	if sampledAvail < 1 {
		sampledAvail = 1
	}
	span := count * strideBytes
	streaming := span > 2*c.AllocatedBytes()
	limit := int64(maxSimNonStreaming)
	if streaming {
		limit = maxSimPerTouch
	}
	stepK := ss
	if sampledAvail > limit {
		stepK = count / limit
	}
	var misses, wbs, simulated int64
	for k := int64(0); k < count; k += stepK {
		line := start + uint64(k)*strideLines
		// Snap to the line's sampling representative so that the same
		// element observed through different patterns aliases consistently.
		line = line / uint64(c.cfg.SetSample) * uint64(c.cfg.SetSample)
		m, w := c.accessLine(line, write)
		simulated++
		if m {
			misses++
		}
		if w {
			wbs++
		}
	}
	if stepK > ss && streaming {
		swbs := scaleBy(wbs, count, simulated)
		if write {
			swbs = count
		}
		return c.record2(count, count, swbs)
	}
	return c.record(count, simulated, misses, wbs)
}

// Random simulates count single-line accesses over a region of regionBytes
// starting at base; positions come from posFn, which must return values in
// [0, 1) (uniform or skewed — the caller owns the distribution). Sampling
// accepts draws that land on sampled lines, so hot lines keep their
// temporal locality.
func (c *refLLC) Random(base uint64, regionBytes int64, count int64, write bool, posFn func() float64) Stats {
	if count <= 0 || regionBytes <= 0 {
		return Stats{}
	}
	regionLines := regionBytes / LineBytes
	if regionLines < 1 {
		regionLines = 1
	}
	ss := uint64(c.cfg.SetSample)
	want := count / int64(ss)
	if want < 1 {
		want = 1
	}
	// Random touches use a tighter cap than sequential ones: random
	// draws have no deterministic-revisit hazard, so sub-rate sampling
	// stays statistically sound, and bulk random touches (hash builds
	// and probes) are the hottest call site in whole-workload runs.
	if want > maxSimRandomTouch {
		want = maxSimRandomTouch
	}
	// Each draw is quantized to its sampling representative (the nearest
	// lower line ≡ 0 mod SetSample), the same representatives Sequential
	// and Strided touch, so hot data keeps consistent identity across
	// access patterns. One simulated access stands for SetSample real ones.
	var misses, wbs int64
	start := base / LineBytes
	for i := int64(0); i < want; i++ {
		off := uint64(float64(regionLines) * posFn())
		if off >= uint64(regionLines) {
			off = uint64(regionLines) - 1
		}
		line := (start + off) / ss * ss
		m, w := c.accessLine(line, write)
		if m {
			misses++
		}
		if w {
			wbs++
		}
	}
	return c.record(count, want, misses, wbs)
}

// TestLLCMatchesReference drives the flat-array LLC and the reference
// model with the same seeded random op sequences — sequential, strided and
// random touches with mixed writes, full, sparse and empty way masks,
// flushes and stat resets — and requires identical Stats after every op.
func TestLLCMatchesReference(t *testing.T) {
	cfgs := []Config{
		PaperLLC(),
		{SizeBytes: 3 << 20, Ways: 12, SetSample: 3},  // non-power-of-two sets and sampling
		{SizeBytes: 64 << 10, Ways: 4, SetSample: 1},  // tiny: constant eviction
		{SizeBytes: 4 << 20, Ways: 64, SetSample: 16}, // widest mask
	}
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dB-%dw-s%d/seed%d", cfg.SizeBytes, cfg.Ways, cfg.SetSample, seed), func(t *testing.T) {
				t.Parallel()
				diffLLC(t, cfg, seed, 400)
			})
		}
	}
}

func diffLLC(t *testing.T, cfg Config, seed int64, ops int) {
	t.Helper()
	got, want := New(cfg), newRef(cfg)
	g := sim.NewRNG(seed)
	// Random touches draw positions from their own, identically seeded
	// streams, so both caches see the same addresses.
	gotPos, wantPos := sim.NewRNG(seed+1000), sim.NewRNG(seed+1000)
	region := uint64(4 * cfg.SizeBytes) // working sets up to 4x the cache
	full := uint64(1)<<uint(cfg.Ways) - 1
	for i := 0; i < ops; i++ {
		write := g.Intn(3) == 0
		// Half the touches start at one of eight hot bases, so regions
		// are revisited and hits, dirty evictions and LRU order matter.
		base := uint64(g.Int64n(int64(region)))
		if g.Intn(2) == 0 {
			base = uint64(g.Intn(8)) * uint64(cfg.SizeBytes/4)
		}
		var op string
		var gs, ws Stats
		switch k := g.Intn(20); {
		case k < 6:
			bytes := int64(1) << uint(6+g.Intn(18)) // 64 B .. 8 MB
			bytes += g.Int64n(bytes)
			op = fmt.Sprintf("Sequential(%d, %d, %v)", base, bytes, write)
			gs, ws = got.Sequential(base, bytes, write), want.Sequential(base, bytes, write)
		case k < 10:
			count := g.Int64n(1 << 16)
			stride := int64(g.Intn(4096))
			op = fmt.Sprintf("Strided(%d, %d, %d, %v)", base, count, stride, write)
			gs, ws = got.Strided(base, count, stride, write), want.Strided(base, count, stride, write)
		case k < 15:
			rb := g.Int64n(int64(region)) + 1
			count := g.Int64n(1 << 15)
			op = fmt.Sprintf("Random(%d, %d, %d, %v)", base, rb, count, write)
			gf, wf := gotPos.Float64, wantPos.Float64
			if g.Intn(2) == 0 { // skewed toward the region's start
				gf = func() float64 { x := gotPos.Float64(); return x * x * x }
				wf = func() float64 { x := wantPos.Float64(); return x * x * x }
			}
			gs, ws = got.Random(base, rb, count, write, gf), want.Random(base, rb, count, write, wf)
		case k < 18:
			var m uint64
			switch g.Intn(4) {
			case 0:
				m = full
			case 1:
				m = 0 // empty: clamps to the lowest way
			case 2:
				m = uint64(g.Int63()) & full // sparse
			default:
				m = uint64(1)<<uint(1+g.Intn(cfg.Ways)) - 1 // contiguous, paper-style
			}
			op = fmt.Sprintf("SetWayMask(%#x)", m)
			got.SetWayMask(m)
			want.SetWayMask(m)
			if got.WayMask() != want.WayMask() || got.AllocatedBytes() != want.AllocatedBytes() {
				t.Fatalf("op %d %s: mask %#x/%d bytes, reference %#x/%d bytes",
					i, op, got.WayMask(), got.AllocatedBytes(), want.WayMask(), want.AllocatedBytes())
			}
		case k < 19:
			op = "Flush()"
			got.Flush()
			want.Flush()
		default:
			op = "ResetStats()"
			got.ResetStats()
			want.ResetStats()
		}
		if gs != ws || got.Stats() != want.Stats() {
			t.Fatalf("op %d %s: returned %+v, reference %+v; cumulative %+v, reference %+v",
				i, op, gs, ws, got.Stats(), want.Stats())
		}
	}
}
