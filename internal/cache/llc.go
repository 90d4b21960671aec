// Package cache implements a sampled set-associative last-level cache model
// with Intel CAT-style way-granular partitioning.
//
// The cache is simulated structurally: tags, per-set LRU state, and dirty
// bits, so miss-rate-versus-size knees emerge from the workload's actual
// reuse behaviour rather than from a fitted curve. To keep the model fast
// enough to sit under a whole-database simulation it is *sampled*, in the
// spirit of SHARDS: only 1 in SetSample cache lines is simulated (lines
// whose global line number is ≡ 0 mod SetSample), against a cache scaled
// down by the same factor, and all counters are scaled back up. A given
// line is either always sampled or never sampled, so temporal reuse across
// scans, probes, and operators is detected faithfully.
//
// CAT semantics follow the paper's description of the hardware: the way
// mask restricts *allocation and eviction* only — lookups search all ways,
// so data resident outside the current mask still hits.
package cache

import (
	"fmt"
	"math/bits"
)

// LineBytes is the cache line size.
const LineBytes = 64

// Config describes one socket's LLC.
type Config struct {
	SizeBytes int64 // total capacity, e.g. 20 MiB
	Ways      int   // associativity, one allocation unit ("way") each
	SetSample int   // simulate 1 in SetSample lines (>= 1)
}

// PaperLLC returns the per-socket LLC of the paper's Xeon E5-2620 v4:
// 20 MB, 20 ways (1 MB per way, matching CAT's 20-bit capacity bitmask).
func PaperLLC() Config {
	return Config{SizeBytes: 20 << 20, Ways: 20, SetSample: 64}
}

// Stats holds scaled access counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	Writebacks int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
}

// MissRatio returns the fraction of accesses that missed, or 0 if none.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// LLC is one socket's simulated last-level cache.
//
// State lives in flat arrays so an access touches a few cache lines of the
// host and allocates nothing. Way w of simulated set s sits at index
// s*ways+w of tags, prev and next; valid and dirty hold one way bitmask per
// set. Replacement is exact LRU over all ways of a set, kept as a doubly
// linked recency list (head = most recently used, tail = least): a hit or
// fill moves the way to the head, and the LRU victim among the CAT-masked
// ways is the first masked way met walking from the tail.
type LLC struct {
	cfg     Config
	simSets int
	mask    uint64 // CAT way mask: bit i set => way i may be allocated into

	tags       []uint64 // line number held by each way
	valid      []uint64 // per-set bitmask of ways holding a line
	dirty      []uint64 // per-set bitmask of valid ways written since fill
	prev, next []uint8  // recency-list links: prev toward the head, next toward the tail
	head, tail []uint8  // per set: most and least recently used way

	stats Stats
}

// New creates an LLC with all ways allocated (full mask). It panics if
// cfg.Ways is outside [1, 64]: way masks are 64-bit.
func New(cfg Config) *LLC {
	if cfg.Ways < 1 || cfg.Ways > 64 {
		panic(fmt.Sprintf("cache: Config.Ways = %d, want 1..64 (way masks are 64-bit)", cfg.Ways))
	}
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
	n := simSets * cfg.Ways
	c := &LLC{
		cfg:     cfg,
		simSets: simSets,
		mask:    (uint64(1) << uint(cfg.Ways)) - 1, // all ones at 64 ways
		tags:    make([]uint64, n),
		valid:   make([]uint64, simSets),
		dirty:   make([]uint64, simSets),
		prev:    make([]uint8, n),
		next:    make([]uint8, n),
		head:    make([]uint8, simSets),
		tail:    make([]uint8, simSets),
	}
	// Every set starts as the list 0 -> 1 -> ... -> ways-1. The order of
	// never-filled ways is irrelevant: they are invalid, and an invalid
	// masked way is always filled before the list is consulted.
	for s := 0; s < simSets; s++ {
		base := s * cfg.Ways
		for w := 0; w < cfg.Ways; w++ {
			c.prev[base+w] = uint8(w - 1)
			c.next[base+w] = uint8(w + 1)
		}
		c.tail[s] = uint8(cfg.Ways - 1)
	}
	return c
}

// SetWayMask installs a CAT allocation mask. Bits beyond the way count are
// ignored; an empty mask is treated as the lowest single way (hardware
// forbids an empty COS mask).
func (c *LLC) SetWayMask(mask uint64) {
	mask &= (uint64(1) << uint(c.cfg.Ways)) - 1
	if mask == 0 {
		mask = 1
	}
	c.mask = mask
}

// WayMask returns the current allocation mask.
func (c *LLC) WayMask() uint64 { return c.mask }

// WayBytes returns the capacity of a single way.
func (c *LLC) WayBytes() int64 { return c.cfg.SizeBytes / int64(c.cfg.Ways) }

// AllocatedBytes returns the capacity covered by the current mask.
func (c *LLC) AllocatedBytes() int64 {
	return int64(c.AllocatedWays()) * c.WayBytes()
}

// AllocatedWays returns the way count in the current mask — the COS
// (class-of-service) width, used to label per-COS telemetry series.
func (c *LLC) AllocatedWays() int {
	n := 0
	for m := c.mask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Flush invalidates the entire cache (the paper reboots between the
// largest and smallest allocation to shed out-of-mask residue).
// The recency lists are left as they are, as an invalid way's position in
// them is never consulted.
func (c *LLC) Flush() {
	clear(c.valid)
	clear(c.dirty)
}

// Stats returns the scaled counters accumulated so far.
func (c *LLC) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without disturbing cache contents.
func (c *LLC) ResetStats() { c.stats = Stats{} }

// accessLine simulates one sampled line access and returns (miss, writeback).
// Sampled lines are multiples of SetSample; dividing by the sampling factor
// before taking the set index makes consecutive sampled lines sweep the
// simulated sets round-robin, mirroring the balanced set mapping of real
// hardware for sequential data.
func (c *LLC) accessLine(line uint64, write bool) (miss, wb bool) {
	s := int((line / uint64(c.cfg.SetSample)) % uint64(c.simSets))
	base := s * c.cfg.Ways
	tags := c.tags[base : base+c.cfg.Ways]
	valid := c.valid[s]
	// Lookup searches all ways: CAT does not restrict hits. Invalid ways
	// may keep a stale tag, so a tag match counts only on a valid way.
	for w, t := range tags {
		if t == line && valid&(1<<uint(w)) != 0 {
			c.moveToHead(s, base, w)
			if write {
				c.dirty[s] |= 1 << uint(w)
			}
			return false, false
		}
	}
	// Miss: fill the lowest-numbered invalid way in the mask, else evict
	// the least recently used way in the mask.
	var w int
	if free := c.mask &^ valid; free != 0 {
		w = bits.TrailingZeros64(free)
	} else {
		w = int(c.tail[s])
		for c.mask&(1<<uint(w)) == 0 {
			w = int(c.prev[base+w])
		}
	}
	bit := uint64(1) << uint(w)
	wb = valid&c.dirty[s]&bit != 0
	tags[w] = line
	c.valid[s] = valid | bit
	if write {
		c.dirty[s] |= bit
	} else {
		c.dirty[s] &^= bit
	}
	c.moveToHead(s, base, w)
	return true, wb
}

// moveToHead makes way w the most recently used way of set s, whose ways
// start at index base. The head's prev and the tail's next are unused.
func (c *LLC) moveToHead(s, base, w int) {
	h := int(c.head[s])
	if h == w {
		return
	}
	p, n := c.prev[base+w], c.next[base+w]
	c.next[base+int(p)] = n
	if int(c.tail[s]) == w {
		c.tail[s] = p
	} else {
		c.prev[base+int(n)] = p
	}
	c.next[base+w] = uint8(h)
	c.prev[base+h] = uint8(w)
	c.head[s] = uint8(w)
}

// maxSimPerTouch bounds the number of line accesses one bulk touch
// simulates. It is sized so that a touch larger than the cache still fully
// ages every simulated set (samples-per-set comfortably exceeds the
// associativity), preserving the pollution effect of large scans.
const maxSimPerTouch = 1 << 14

// maxSimNonStreaming is the higher bound used for touches that are not
// clearly streaming: those must be sampled at the full 1/SetSample rate or
// the SHARDS size invariant breaks and reuse is over-estimated.
const maxSimNonStreaming = 1 << 17

// maxSimRandomTouch bounds one bulk Random touch (see Random).
const maxSimRandomTouch = 1 << 12

// record folds simulated results back into scaled stats.
func (c *LLC) record(total, simulated, misses, wbs int64) Stats {
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
func (c *LLC) Sequential(base uint64, bytes int64, write bool) Stats {
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

func scaleBy(n, total, simulated int64) int64 {
	if simulated == 0 {
		return 0
	}
	return int64(float64(n)*float64(total)/float64(simulated) + 0.5)
}

// record2 records pre-scaled stats.
func (c *LLC) record2(accesses, misses, wbs int64) Stats {
	st := Stats{Accesses: accesses, Misses: misses, Writebacks: wbs}
	c.stats.Add(st)
	return st
}

// Strided simulates count accesses starting at base separated by
// strideBytes (e.g. reading one column out of wide rows). Sampling picks
// every SetSample-th visited element, which keeps repeated identical scans
// consistent with each other.
func (c *LLC) Strided(base uint64, count int64, strideBytes int64, write bool) Stats {
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
func (c *LLC) Random(base uint64, regionBytes int64, count int64, write bool, posFn func() float64) Stats {
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
