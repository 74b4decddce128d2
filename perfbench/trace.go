package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one operation share Op; Parent names
// the span that caused this one (0 for none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory while recording is on and writes them
// out when the run ends. A nil tracer, or one switched off, records
// nothing; recording is switched on for the traced half of a traced run
// only, so the same stack serves the untraced comparison half.
type tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// recording reports whether spans are being kept.
func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// newID reserves a span ID, so children can name a parent that has not
// ended yet.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record keeps a finished span when recording is on. id may be 0, in
// which case a fresh ID is assigned.
func (t *tracer) record(id, parent, op int64, name, attr string, start, end time.Time) {
	if !t.recording() {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Attr: attr,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans kept so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of
// the parent; only the union of their intervals clipped to the parent
// counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// spanIndex groups spans by name and by parent for metric extraction.
type spanIndex struct {
	byName   map[string][]span
	children map[int64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of every span with the name (and
// attribute, when attr is not empty), converted by unit.
func (ix spanIndex) durations(name, attr string, unit func(time.Duration) float64) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		if attr == "" || s.Attr == attr {
			out = append(out, unit(s.dur()))
		}
	}
	return out
}

// selfTimes returns the self time of every span with the name.
func (ix spanIndex) selfTimes(name string, unit func(time.Duration) float64) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, unit(selfTime(s, ix.children[s.ID])))
	}
	return out
}

// spanSummary is one line of the trace file's closing summary.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50MS     float64 `json:"p50_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
}

// writeTrace writes every span as one JSON line, then one summary line
// per span name (count, median duration, median self time).
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
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
	ix := indexSpans(spans)
	names := make([]string, 0, len(ix.byName))
	for n := range ix.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sum := spanSummary{Name: n, Count: len(ix.byName[n]),
			P50MS:     percentile(ix.durations(n, "", ms), 50),
			SelfP50MS: percentile(ix.selfTimes(n, ms), 50)}
		if err := enc.Encode(map[string]spanSummary{"summary": sum}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
