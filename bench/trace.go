package main

import "time"

// span is one timed call into a layer.
type span struct {
	Name   string  `json:"name"`
	Rep    int     `json:"rep"`
	Parent int     `json:"parent"`  // index of the enclosing span, -1 for none
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
}

// tracer keeps the spans of traced reps in memory. A nil tracer records
// nothing, which is how untraced reps run.
type tracer struct {
	origin time.Time
	rep    int
	open   []int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Rep: t.rep, Parent: parent, Start: time.Since(t.origin).Seconds()})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.origin).Seconds()
}

// call runs f inside a span named name.
func call[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	t.begin(name)
	defer t.end()
	return f()
}

// spanSeconds returns, per span name, the mean seconds per rep over reps
// traced reps.
func spanSeconds(spans []span, reps int) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) / float64(reps)
	}
	return out
}
