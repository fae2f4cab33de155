package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark. The program itself is
// not instrumented: a span wraps either one daemon request (a root
// span) or one call into a layer's public API during the mirror replay
// of that request (a child span). Every span of one operation shares
// Req.
//
// A child repeats, against the mirror tenant, the part of its parent's
// work done by a lower layer, and runs after its parent rather than
// inside it. Self time therefore subtracts the durations of a span's
// children instead of the intervals they overlap. Probe spans measure
// a layer off the blocking path (a standalone parse, say) and are not
// subtracted.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Req    int64            `json:"req"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Probe  bool             `json:"probe,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// set records a count on the span.
func (s *span) set(key string, v int64) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] = v
}

// tracer keeps the spans of one traced phase in memory; write dumps
// them when the run ends.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64

	// op is held across one traced request and its replay, so neither
	// is measured while the other client's work competes for the CPUs,
	// and the mirror is used by one replay at a time.
	op sync.Mutex

	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the time since the phase began.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// newReq allocates the id shared by the spans of one operation.
func (t *tracer) newReq() int64 { return t.nextReq.Add(1) }

// begin opens a span; finish closes and records it.
func (t *tracer) begin(req int64, parent *span, name string) *span {
	s := &span{ID: t.nextID.Add(1), Req: req, Name: name, Start: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

func (t *tracer) finish(s *span) {
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record wraps one call in a span.
func (t *tracer) record(req int64, parent *span, name string, fn func(*span)) *span {
	s := t.begin(req, parent, name)
	fn(s)
	t.finish(s)
	return s
}

// write dumps the spans as JSON lines, ordered by id.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n     int
	total time.Duration
	// self is total minus the durations of the spans' non-probe
	// children, taken over the whole set (one span's difference of two
	// separate executions can be negative; the sum is not clamped per
	// span).
	self time.Duration
}

// layers aggregates the spans by name.
func (t *tracer) layers() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	name := make(map[int64]string, len(t.spans))
	for _, s := range t.spans {
		name[s.ID] = s.Name
	}
	out := make(map[string]*layerStat)
	for _, s := range t.spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		ls.n++
		ls.total += s.dur()
		ls.self += s.dur()
	}
	for _, s := range t.spans {
		if s.Parent != 0 && !s.Probe {
			out[name[s.Parent]].self -= s.dur()
		}
	}
	for _, ls := range out {
		if ls.self < 0 {
			ls.self = 0
		}
	}
	return out
}
