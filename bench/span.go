package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span. Pkts is the packet count
// the span covers (0 where the span is not per-packet work).
type Span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pkts   int32  `json:"pkts"`
}

// Tracer keeps spans in a buffer allocated up front. Any goroutine may
// record: each claims a distinct slot with one atomic add, so recording
// never locks and never allocates. Spans past the buffer's end are
// counted, not kept. The buffer is read only after every recording
// goroutine has been joined.
type Tracer struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int32
	dropped atomic.Int64
}

// NewTracer returns a tracer holding up to capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, capacity)}
}

// Now returns nanoseconds since the tracer's epoch (monotonic).
func (t *Tracer) Now() int64 { return int64(time.Since(t.epoch)) }

// Record stores one span and returns its id (0 if the buffer is full).
// A nil tracer records nothing, which is how untraced passes run the
// same code.
func (t *Tracer) Record(name string, parent int32, start, end int64, pkts int) int32 {
	if t == nil {
		return 0
	}
	i := t.next.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i-1] = Span{Name: name, ID: i, Parent: parent, Start: start, End: end, Pkts: int32(pkts)}
	return i
}

// Begin records a span whose end is not known yet; End completes it.
func (t *Tracer) Begin(name string, parent int32, start int64, pkts int) int32 {
	return t.Record(name, parent, start, start, pkts)
}

// End sets the end of a span Begin returned. Only the goroutine that
// began the span may end it.
func (t *Tracer) End(id int32, end int64) {
	if t != nil && id > 0 {
		t.spans[id-1].End = end
	}
}

// Spans returns the recorded spans. Call after all recorders are done.
func (t *Tracer) Spans() []Span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// Dropped reports how many spans did not fit the buffer.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// LayerTime is the summed time and packet count of one span name.
type LayerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Pkts    int64   `json:"pkts"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	SelfPer float64 `json:"self_ns_per_pkt"`
}

// SelfTimes sums, per span name, each span's duration and its self
// time: the duration minus the part of its interval that its child
// spans cover. Children of one parent are assumed not to overlap each
// other (they run on the parent's goroutine, one after another); a
// child recorded on another goroutine that starts after its parent
// ended, such as a decision following its ingest call, covers nothing.
func SelfTimes(spans []Span) []LayerTime {
	byID := make(map[int32]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		pi, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			continue
		}
		p := spans[pi]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[pi] += hi - lo
		}
	}
	agg := map[string]*LayerTime{}
	for i, s := range spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Pkts += int64(s.Pkts)
		lt.TotalNS += d
		lt.SelfNS += max(d-covered[i], 0)
	}
	out := make([]LayerTime, 0, len(agg))
	for _, lt := range agg {
		if lt.Pkts > 0 {
			lt.SelfPer = float64(lt.SelfNS) / float64(lt.Pkts)
		}
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteSpans writes spans as JSON lines to path.
func WriteSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("bench: write span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("bench: write span file: %w", err)
	}
	return f.Close()
}
