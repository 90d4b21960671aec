package cache

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkLayer/cache measures the LLC simulator alone, one bulk touch
// per op on the paper's 20 MB, 20-way LLC: a 4 MB sequential read walking
// a 64 MB region (256 sampled lines per op, half reused), 4096 uniform
// random reads over 32 MB, and a 4096-element strided read at a 256 B
// stride. ns/op and allocs/op are host costs; the simulated counters are
// covered by the package tests.
func BenchmarkLayer(b *testing.B) {
	b.Run("cache/seq", func(b *testing.B) {
		c := New(PaperLLC())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Sequential(uint64(i%16)<<22, 4<<20, false)
		}
	})
	b.Run("cache/random", func(b *testing.B) {
		c := New(PaperLLC())
		pos := sim.NewRNG(1).Float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Random(0, 32<<20, 4096*64, false, pos)
		}
	})
	b.Run("cache/strided", func(b *testing.B) {
		c := New(PaperLLC())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Strided(uint64(i%16)<<20, 4096*64, 256, false)
		}
	})
}
