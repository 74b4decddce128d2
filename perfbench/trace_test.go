package main

import (
	"testing"
	"time"
)

func sp(id, parent int64, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "x", Start: start, End: end}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := sp(1, 0, 0, 100*ms)
	children := []span{
		sp(2, 1, 10*ms, 30*ms),
		sp(3, 1, 20*ms, 50*ms),   // overlaps the first child
		sp(4, 1, 25*ms, 35*ms),   // nested inside both
		sp(5, 1, 90*ms, 120*ms),  // sticks out of the parent
		sp(6, 1, 200*ms, 210*ms), // entirely outside
	}
	// Covered: [10,50] and [90,100] = 50ms.
	if got := selfTime(parent, children); got != 50*ms {
		t.Fatalf("self time = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("self time without children = %v, want 100ms", got)
	}
	full := []span{sp(7, 1, -5*ms, 60*ms), sp(8, 1, 60*ms, 100*ms)}
	if got := selfTime(parent, full); got != 0 {
		t.Fatalf("self time of a fully covered span = %v, want 0", got)
	}
}

func TestSpanIndexSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	t0 := tr.t0
	at := func(d time.Duration) time.Time { return t0.Add(d * time.Millisecond) }
	call := tr.newID()
	tr.record(call, 0, 9, "client.wait", "", at(0), at(40))
	tr.record(0, call, 9, "service.results", "", at(5), at(30))
	tr.on.Store(false)
	tr.record(0, call, 9, "service.results", "", at(0), at(40)) // not recording: dropped

	ix := indexSpans(tr.snapshot())
	if got := ix.selfTimes("client.wait", ms); len(got) != 1 || got[0] != 15 {
		t.Fatalf("client self times = %v, want [15]", got)
	}
	if got := ix.durations("service.results", "", ms); len(got) != 1 || got[0] != 25 {
		t.Fatalf("handler durations = %v, want [25]", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if tr.recording() || tr.newID() != 0 {
		t.Fatal("nil tracer reports recording")
	}
	tr.record(0, 0, 0, "x", "", time.Now(), time.Now()) // must not panic
}
