package perf

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its name, the span that caused
// it (0 for a root), the request it belongs to, and its interval in
// nanoseconds since the tracer started.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call, so untraced passes run
// the same code as traced ones.
type Tracer struct {
	on    bool
	epoch time.Time

	mu sync.Mutex
	// r3dlint:guardedby mu
	spans []Span
	// r3dlint:guardedby mu
	next int64
}

// NewTracer returns a tracer; on=false disables recording.
func NewTracer(on bool) *Tracer {
	return &Tracer{on: on, epoch: time.Now()}
}

// Now returns nanoseconds since the tracer started.
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its ID (0 when tracing is off).
func (t *Tracer) Begin(name string, parent int64, req string) int64 {
	if !t.on {
		return 0
	}
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return t.next
}

// End closes the span opened by Begin.
func (t *Tracer) End(id int64) {
	if !t.on || id == 0 {
		return
	}
	now := t.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	// IDs are dense and 1-based, so the span sits at index id-1.
	t.spans[id-1].End = now
}

// Record adds a span whose interval was observed rather than bracketed
// (for example a job's queue wait, seen from state changes).
func (t *Tracer) Record(name string, parent int64, req string, start, end int64) int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return t.next
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// LayerTime is the per-name aggregate of a trace.
type LayerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the time not covered by the span's own child spans.
	SelfMS float64 `json:"self_ms"`
}

// Summarize aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals, clipped to the
// span.
func Summarize(spans []Span) []LayerTime {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := map[string]*LayerTime{}
	var names []string
	for _, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			agg[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]LayerTime, 0, len(names))
	for _, n := range names {
		out = append(out, *agg[n])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent Span, kids []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// TotalMS sums the durations of every span with the given name.
func TotalMS(sum []LayerTime, name string) float64 {
	for _, lt := range sum {
		if lt.Name == name {
			return lt.TotalMS
		}
	}
	return 0
}

// WriteTrace writes the spans and their per-name summary as JSON.
func WriteTrace(path string, spans []Span) error {
	body, err := json.MarshalIndent(struct {
		Summary []LayerTime `json:"summary"`
		Spans   []Span      `json:"spans"`
	}{Summarize(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
