package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testLLC(sample int) *LLC {
	return New(Config{SizeBytes: 20 << 20, Ways: 20, SetSample: sample})
}

func TestAllocatedBytesFollowsMask(t *testing.T) {
	c := testLLC(64)
	if got := c.AllocatedBytes(); got != 20<<20 {
		t.Fatalf("full mask allocation = %d", got)
	}
	c.SetWayMask(0x3) // 2 ways = 2 MB
	if got := c.AllocatedBytes(); got != 2<<20 {
		t.Fatalf("2-way allocation = %d", got)
	}
	c.SetWayMask(0) // forbidden; clamps to one way
	if got := c.AllocatedBytes(); got != 1<<20 {
		t.Fatalf("empty mask allocation = %d", got)
	}
}

func TestSmallWorkingSetHitsAfterWarmup(t *testing.T) {
	c := testLLC(16)
	const ws = 4 << 20 // 4 MB working set inside a 20 MB cache
	c.Sequential(0, ws, false)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r > 0.02 {
		t.Fatalf("second pass miss ratio = %.3f, want ~0", r)
	}
}

func TestLargeWorkingSetThrashes(t *testing.T) {
	c := testLLC(16)
	const ws = 200 << 20 // 10x the cache
	c.Sequential(0, ws, false)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r < 0.9 {
		t.Fatalf("streaming miss ratio = %.3f, want ~1", r)
	}
}

func TestMissRatioMonotoneInAllocation(t *testing.T) {
	const ws = 16 << 20
	prev := 2.0
	for _, ways := range []int{2, 6, 12, 20} {
		c := testLLC(16)
		c.SetWayMask((1 << uint(ways)) - 1)
		c.Flush()
		// Warm up then measure three passes.
		c.Sequential(0, ws, false)
		c.ResetStats()
		for i := 0; i < 3; i++ {
			c.Sequential(0, ws, false)
		}
		r := c.Stats().MissRatio()
		if r > prev+0.05 {
			t.Fatalf("miss ratio increased with more ways: %d ways -> %.3f (prev %.3f)", ways, r, prev)
		}
		prev = r
	}
	if prev > 0.05 {
		t.Fatalf("full-cache miss ratio for 16MB working set = %.3f, want ~0", prev)
	}
}

func TestHitsAllowedOutsideMask(t *testing.T) {
	c := testLLC(16)
	const ws = 8 << 20
	c.Sequential(0, ws, false) // fill with full mask
	c.SetWayMask(0x1)          // shrink to 1 way
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r > 0.1 {
		t.Fatalf("resident data should still hit outside mask; miss ratio = %.3f", r)
	}
}

func TestMaskRestrictsNewAllocations(t *testing.T) {
	c := testLLC(16)
	c.SetWayMask(0x1) // 1 MB only
	const ws = 8 << 20
	c.Sequential(0, ws, false)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r < 0.7 {
		t.Fatalf("8MB working set in 1MB allocation: miss ratio = %.3f, want high", r)
	}
}

func TestDirtyEvictionProducesWritebacks(t *testing.T) {
	c := testLLC(16)
	const ws = 200 << 20
	c.Sequential(0, ws, true)        // write the region
	st := c.Sequential(0, ws, false) // stream again, evicting dirty lines
	_ = st
	if c.Stats().Writebacks == 0 {
		t.Fatal("no writebacks after evicting written data")
	}
}

func TestRandomHotSetLocality(t *testing.T) {
	c := testLLC(16)
	g := sim.NewRNG(5)
	// 2 MB hot region accessed randomly inside the full mask: after warmup,
	// almost everything should hit.
	c.Random(0, 2<<20, 1<<16, false, g.Float64)
	st := c.Random(0, 2<<20, 1<<16, false, g.Float64)
	if r := st.MissRatio(); r > 0.1 {
		t.Fatalf("hot random set miss ratio = %.3f", r)
	}
}

func TestRandomVsSequentialConsistentRepresentatives(t *testing.T) {
	c := testLLC(16)
	g := sim.NewRNG(5)
	const ws = 4 << 20
	c.Sequential(0, ws, false) // warm sequentially
	st := c.Random(0, ws, 1<<14, false, g.Float64)
	if r := st.MissRatio(); r > 0.1 {
		t.Fatalf("random reads of sequentially-warmed data missed: %.3f", r)
	}
}

func TestStridedTouch(t *testing.T) {
	c := testLLC(16)
	// Stride of 256 bytes over 1M elements = 256 MB span: streaming misses.
	st := c.Strided(0, 1<<20, 256, false)
	if st.Accesses != 1<<20 {
		t.Fatalf("accesses = %d", st.Accesses)
	}
	if r := st.MissRatio(); r < 0.5 {
		t.Fatalf("large strided stream miss ratio = %.3f", r)
	}
}

func TestFlushInvalidates(t *testing.T) {
	c := testLLC(16)
	const ws = 4 << 20
	c.Sequential(0, ws, false)
	c.Flush()
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r < 0.9 {
		t.Fatalf("post-flush miss ratio = %.3f, want ~1", r)
	}
}

func TestScaledCountersProperty(t *testing.T) {
	f := func(kb uint16, write bool) bool {
		c := testLLC(16)
		bytes := int64(kb%2048+1) * 1024
		st := c.Sequential(0, bytes, write)
		lines := (bytes + LineBytes - 1) / LineBytes
		return st.Accesses == lines && st.Misses >= 0 && st.Misses <= st.Accesses*2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSupersetMasksPreserveResidency(t *testing.T) {
	// The paper grows allocations as supersets (1, 3, 7, ... bitmasks):
	// growing the mask must never lose already-resident data.
	c := testLLC(16)
	const ws = 1 << 20
	c.SetWayMask(0x1)
	c.Sequential(0, ws, false)
	c.SetWayMask(0x3)
	st := c.Sequential(0, ws, false)
	if r := st.MissRatio(); r > 0.05 {
		t.Fatalf("data lost when growing mask: miss ratio %.3f", r)
	}
}

func TestNewRejectsBadWays(t *testing.T) {
	for _, ways := range []int{0, -1, 65} {
		func() {
			defer func() {
				r := recover()
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "Config.Ways") {
					t.Errorf("New with Ways=%d: panic %v, want a Config.Ways message", ways, r)
				}
			}()
			New(Config{SizeBytes: 20 << 20, Ways: ways, SetSample: 64})
		}()
	}
	// 64 ways is the widest mask and must work.
	c := New(Config{SizeBytes: 4 << 20, Ways: 64, SetSample: 16})
	if c.WayMask() != ^uint64(0) || c.AllocatedWays() != 64 {
		t.Fatalf("64-way mask = %#x (%d ways)", c.WayMask(), c.AllocatedWays())
	}
}

// TestAccessesDoNotAllocate pins the simulator hot path: a touch of any
// pattern allocates nothing once the cache exists.
func TestAccessesDoNotAllocate(t *testing.T) {
	c := New(PaperLLC())
	g := sim.NewRNG(3)
	pos := g.Float64
	base := uint64(0)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Sequential", func() { c.Sequential(base, 8<<20, true); base += 1 << 20 }},
		{"Random", func() { c.Random(base, 64<<20, 1<<16, false, pos) }},
		{"Strided", func() { c.Strided(base, 1<<16, 256, false) }},
	} {
		if n := testing.AllocsPerRun(20, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
}
