package sim

import (
	"sort"
	"testing"
)

// TestEventHeapPopsInAtSeqOrder pushes events with many equal times in
// random order, interleaving pops, and requires the pops to come out
// exactly as sorting by (at, seq) would order them.
func TestEventHeapPopsInAtSeqOrder(t *testing.T) {
	g := NewRNG(9)
	for round := 0; round < 50; round++ {
		var h eventHeap
		var pushed, popped []event
		seqs := g.Perm(500)
		for i, seq := range seqs {
			e := event{at: Time(g.Intn(8)), seq: uint64(seq)}
			h.push(e)
			pushed = append(pushed, e)
			if i%7 == 6 {
				popped = append(popped, h.pop())
			}
		}
		for len(h) > 0 {
			popped = append(popped, h.pop())
		}
		// Interleaved pops see only what was pushed so far, so replay the
		// same schedule against a sorted slice.
		var pending, want []event
		for i, e := range pushed {
			pending = append(pending, e)
			sort.Slice(pending, func(a, b int) bool {
				if pending[a].at != pending[b].at {
					return pending[a].at < pending[b].at
				}
				return pending[a].seq < pending[b].seq
			})
			if i%7 == 6 {
				want = append(want, pending[0])
				pending = pending[1:]
			}
		}
		want = append(want, pending...)
		for i := range want {
			if popped[i].at != want[i].at || popped[i].seq != want[i].seq {
				t.Fatalf("round %d pop %d = (%d, %d), want (%d, %d)",
					round, i, popped[i].at, popped[i].seq, want[i].at, want[i].seq)
			}
		}
	}
}

// TestScheduleAndPopDoNotAllocate pins the event queue: once the heap has
// grown, a schedule plus a pop allocates nothing.
func TestScheduleAndPopDoNotAllocate(t *testing.T) {
	s := New(1)
	p := &Proc{sim: s}
	for i := 0; i < 64; i++ {
		s.schedule(Time(i), p)
	}
	at := Time(0)
	n := testing.AllocsPerRun(1000, func() {
		at += 3
		s.schedule(at, p)
		s.events.pop()
	})
	if n != 0 {
		t.Fatalf("schedule+pop: %v allocs, want 0", n)
	}
}

// TestProfiledRunMatchesUnprofiled runs the same seeded program with the
// phase timers armed and disarmed: the simulated trace must not change,
// and the armed run must count one sim.proc entry per resume.
func TestProfiledRunMatchesUnprofiled(t *testing.T) {
	trace := func() []Time {
		s := New(4)
		var q WaitQueue
		var at []Time
		for i := 0; i < 4; i++ {
			s.Spawn("w", func(p *Proc) {
				for j := 0; j < 20; j++ {
					if q.WaitTimeout(p, Duration(p.RNG().Intn(5)+1)*Millisecond) {
						at = append(at, -p.Now())
					} else {
						at = append(at, p.Now())
					}
				}
			})
		}
		s.Spawn("waker", func(p *Proc) {
			for j := 0; j < 40; j++ {
				p.Sleep(Duration(p.RNG().Intn(3)) * Millisecond)
				q.WakeOne(p.Sim())
			}
		})
		s.Run(Time(50 * Millisecond))
		s.Run(Time(Second))
		return at
	}
	plain := trace()
	before := ProfProc.calls.Load()
	EnableProfiling()
	profiled := trace()
	DisableProfiling()
	if len(plain) != len(profiled) {
		t.Fatalf("profiled run saw %d wakeups, unprofiled %d", len(profiled), len(plain))
	}
	for i := range plain {
		if plain[i] != profiled[i] {
			t.Fatalf("wakeup %d at %v profiled, %v unprofiled", i, profiled[i], plain[i])
		}
	}
	if got := ProfProc.calls.Load() - before; got < int64(len(plain)) {
		t.Fatalf("sim.proc entries = %d, want >= %d resumes", got, len(plain))
	}
}
