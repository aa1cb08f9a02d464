package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded by the benchmark around
// its calls into each layer's public functions; nothing inside the program
// is instrumented. Times are nanoseconds since the pass started. Parent is
// the id of the span that caused this one (0 = none), Op the script op it
// belongs to (-1 = set-up or a layer microbenchmark). Src "info" marks a
// span whose duration the layer reported itself (core.Info phase seconds),
// laid out inside its parent; "bench" spans were clocked here.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Src    string `json:"src"`
}

// tracer keeps spans in memory; the parent writes them out when the
// benchmark ends. Safe for the serve workload's two client goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op, Src: "bench"})
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// reported adds child spans whose durations a layer reported itself,
// laid end to end from the parent's start.
func (t *tracer) reported(parent, op int, names []string, seconds []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent-1].Start
	for i, name := range names {
		d := int64(seconds[i] * 1e9)
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: at, End: at + d, Parent: parent, Op: op, Src: "info"})
		at += d
	}
}

// durationsMs returns the durations of every span with the given name that
// belongs to a script op, in op order.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Op >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile: the smallest sample with at
// least q of the samples at or below it.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// writeTrace writes one span per line.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
