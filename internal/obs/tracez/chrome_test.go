package tracez

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestWriteChromeTrace checks the exporter emits one complete event
// per interval span (µs units, worker-derived tid), one instant event
// per instant span, and thread-name metadata for seen workers.
func TestWriteChromeTrace(t *testing.T) {
	var c Collector
	tr := New(&c)
	ctx, root := tr.Start(context.Background(), "campaign")
	_, job := tr.Start(ctx, "job")
	job.SetInt("job", 5)
	job.SetInt("worker", 2)
	ev := job.Child("dpcs.transition")
	ev.SetInt("worker", 2)
	ev.EndInstant()
	job.End()
	root.End()

	spans := c.Snapshot()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Cat   string         `json:"cat"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Scope string         `json:"s"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// 3 spans + 1 thread_name metadata row for worker 2.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = i
	}
	jobEv := doc.TraceEvents[byName["job"]]
	if jobEv.Phase != "X" || jobEv.PID != 1 || jobEv.TID != 2 || jobEv.Cat != "pcs" {
		t.Errorf("job event %+v", jobEv)
	}
	sp := spans[1] // insertion order: transition instant recorded first... find by name instead
	for _, s := range spans {
		if s.Name == "job" {
			sp = s
		}
	}
	if want := float64(sp.StartUnixNS) / 1e3; jobEv.TS != want {
		t.Errorf("job ts %v, want %v", jobEv.TS, want)
	}
	if want := float64(sp.DurNS) / 1e3; jobEv.Dur != want {
		t.Errorf("job dur %v, want %v", jobEv.Dur, want)
	}
	if jobEv.Args["span"] != sp.ID {
		t.Errorf("job args missing span id: %v", jobEv.Args)
	}
	inst := doc.TraceEvents[byName["dpcs.transition"]]
	if inst.Phase != "i" || inst.Scope != "t" || inst.TID != 2 {
		t.Errorf("instant event %+v", inst)
	}
	meta := doc.TraceEvents[byName["thread_name"]]
	if meta.Phase != "M" || meta.Args["name"] != "worker 2" {
		t.Errorf("metadata event %+v", meta)
	}
	// The campaign event has no worker/job attr and lands on track 0.
	camp := doc.TraceEvents[byName["campaign"]]
	if camp.TID != 0 {
		t.Errorf("campaign tid %d, want 0", camp.TID)
	}
}

// TestChromeTIDFromDecodedJSON checks tid resolution on float64 attrs
// (the type JSON decoding produces when re-reading spans.jsonl).
func TestChromeTIDFromDecodedJSON(t *testing.T) {
	sp := &Span{Attrs: map[string]any{"job": float64(7)}}
	tid, isWorker := chromeTID(sp)
	if tid != 7 || isWorker {
		t.Fatalf("tid=%d isWorker=%v, want 7/false", tid, isWorker)
	}
	sp = &Span{Attrs: map[string]any{"worker": float64(3), "job": float64(9)}}
	if tid, isWorker = chromeTID(sp); tid != 3 || !isWorker {
		t.Fatalf("tid=%d isWorker=%v, want 3/true", tid, isWorker)
	}
}
