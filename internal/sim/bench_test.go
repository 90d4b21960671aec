package sim

import "testing"

// BenchmarkLayer/sim measures the kernel alone. schedule_pop is one
// schedule plus one pop on a queue holding 1024 pending events;
// handoff is one simulated wakeup end to end: a proc sleeps, the loop
// pops its event and hands control over and back.
func BenchmarkLayer(b *testing.B) {
	b.Run("sim/schedule_pop", func(b *testing.B) {
		s := New(1)
		p := &Proc{sim: s}
		g := NewRNG(1)
		for i := 0; i < 1024; i++ {
			s.schedule(Time(g.Intn(1<<20)), p)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := s.events.pop()
			s.schedule(ev.at+Time(g.Intn(1<<10)), p)
		}
	})
	b.Run("sim/handoff", func(b *testing.B) {
		s := New(1)
		s.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Microsecond)
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		s.Run(Time(1 << 62))
	})
}
