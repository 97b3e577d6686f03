package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Spans of one operation share op; parent is the id of the span that
// caused this one (0 for a root).
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Op     uint32 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanCap bounds one buffer. Buffers are allocated before the traced window
// and written out at exit; a full buffer drops further spans (counted) —
// timing samples are unaffected.
const spanCap = 1 << 16

// spanBuf is a single-writer span log. Each client owns one, so recording a
// span is an append with no synchronisation.
type spanBuf struct {
	base    uint32
	spans   []span
	dropped int
}

// add records a span and returns its id (0 when the buffer is full).
func (b *spanBuf) add(parent, op uint32, name string, start, end int64) uint32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return 0
	}
	id := b.base + uint32(len(b.spans)) + 1
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// end closes a span that was opened before its children ran.
func (b *spanBuf) end(id uint32, t int64) {
	if id != 0 {
		b.spans[id-b.base-1].End = t
	}
}

// namedValue is one counter reading; snapshots keep them in a fixed order.
type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// counterSnap is the public counters of the layers at one instant.
type counterSnap struct {
	AtNS   int64        `json:"at_ns"`
	Label  string       `json:"label"`
	Values []namedValue `json:"values"`
}

// tracer owns every span buffer of a run and the clock they share.
type tracer struct {
	t0       time.Time
	bufs     []*spanBuf // one per client
	main     *spanBuf   // the harness's own goroutine: probes, set-up
	counters []counterSnap
}

func newTracer(clients int) *tracer {
	t := &tracer{t0: time.Now()}
	for i := 0; i <= clients; i++ {
		b := &spanBuf{base: uint32(i) << 24, spans: make([]span, 0, spanCap)}
		if i < clients {
			t.bufs = append(t.bufs, b)
		} else {
			t.main = b
		}
	}
	return t
}

// now is nanoseconds since the tracer started (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// root records a parentless span on the harness's own buffer.
func (t *tracer) root(name string, start, end int64) { t.main.add(0, 0, name, start, end) }

func (t *tracer) snapshot(label string, values []namedValue) {
	t.counters = append(t.counters, counterSnap{AtNS: t.now(), Label: label, Values: values})
}

// spanSummary is the per-name aggregate of a trace. Self time is a span's
// duration minus the part its children cover.
type spanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) all() (spans []span, dropped int) {
	for _, b := range append(append([]*spanBuf(nil), t.bufs...), t.main) {
		spans = append(spans, b.spans...)
		dropped += b.dropped
	}
	return spans, dropped
}

// summarize aggregates spans by name, in name order.
func summarize(spans []span) []spanSummary {
	childNS := make(map[uint32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.End - s.Start
		}
	}
	byName := make(map[string]*spanSummary)
	for _, s := range spans {
		agg := byName[s.Name]
		if agg == nil {
			agg = &spanSummary{Name: s.Name}
			byName[s.Name] = agg
		}
		d := s.End - s.Start
		agg.Count++
		agg.TotalNS += d
		agg.SelfNS += d - childNS[s.ID]
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]spanSummary, 0, len(names))
	for _, name := range names {
		out = append(out, *byName[name])
	}
	return out
}

// spanMedianMS returns the median duration, in milliseconds, of the spans
// with the given name, and how many there are.
func spanMedianMS(spans []span, name string) (ms float64, n int) {
	var durs []float64
	for _, s := range spans {
		if s.Name == name {
			durs = append(durs, float64(s.End-s.Start)/1e6)
		}
	}
	return median(durs), len(durs)
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     int64         `json:"seed"`
	Dropped  int           `json:"dropped_spans"`
	Summary  []spanSummary `json:"summary"`
	Counters []counterSnap `json:"counters"`
	Spans    []span        `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	spans, dropped := t.all()
	tf := traceFile{
		Workload: workload, Seed: seed, Dropped: dropped,
		Summary: summarize(spans), Counters: t.counters, Spans: spans,
	}
	return writeJSON(path, tf, false)
}

// writeJSON writes v as JSON, checking the close: the file is an output
// later tools parse.
func writeJSON(path string, v any, indent bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", " ")
	}
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return f.Close()
}
