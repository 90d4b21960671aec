package main

import "time"

// span is one timed call of the benchmark into the program. Parent is
// the index of the enclosing span, -1 at the top.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
}

// recorder keeps one iteration's spans in memory, nested by call order.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices of the spans being timed, innermost last
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// span times fn as a child of the innermost open span.
func (r *recorder) span(name string, fn func()) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, StartMs: r.ms(), Parent: parent})
	r.open = append(r.open, i)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndMs = r.ms()
}

func (r *recorder) ms() float64 { return float64(time.Since(r.t0)) / float64(time.Millisecond) }

// total is the summed duration of the spans with the name.
func (r *recorder) total(name string) time.Duration {
	var ms float64
	for _, s := range r.spans {
		if s.Name == name {
			ms += s.EndMs - s.StartMs
		}
	}
	return time.Duration(ms * float64(time.Millisecond))
}
