package tracez

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
)

// TestSpanTreeAndAttrs checks context propagation builds the parent
// chain and attributes survive to the sink.
func TestSpanTreeAndAttrs(t *testing.T) {
	var c Collector
	tr := New(&c)
	ctx := ContextWith(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext did not return the installed tracer")
	}

	ctx, root := tr.Start(ctx, "campaign")
	root.SetStr("campaign", "fig4")
	ctx2, job := tr.Start(ctx, "job")
	job.SetInt("job", 3)
	job.SetUint("seed", 42)
	job.SetBool("cached", true)
	job.SetFloat("f", 1.5)
	if SpanFromContext(ctx2) != job {
		t.Fatal("Start did not rebind the current span")
	}
	probe := job.Child("cache.probe")
	probe.End()
	job.End()
	root.End()

	spans := c.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
		if sp.Trace != tr.TraceID() {
			t.Errorf("span %s trace %q, want %q", sp.Name, sp.Trace, tr.TraceID())
		}
	}
	if byName["campaign"].Parent != "" {
		t.Errorf("campaign span has parent %q", byName["campaign"].Parent)
	}
	if byName["job"].Parent != byName["campaign"].ID {
		t.Errorf("job parent %q, want campaign ID %q", byName["job"].Parent, byName["campaign"].ID)
	}
	if byName["cache.probe"].Parent != byName["job"].ID {
		t.Errorf("probe parent %q, want job ID %q", byName["cache.probe"].Parent, byName["job"].ID)
	}
	a := byName["job"].Attrs
	if a["job"] != int64(3) || a["seed"] != uint64(42) || a["cached"] != true || a["f"] != 1.5 {
		t.Errorf("job attrs %v", a)
	}
	if byName["campaign"].DurNS < 0 || byName["campaign"].StartUnixNS == 0 {
		t.Errorf("campaign timing %+v", byName["campaign"])
	}
}

// TestNilTracerIsNoOp checks every call is safe with no tracer
// installed: the disabled path must never branch at call sites.
func TestNilTracerIsNoOp(t *testing.T) {
	ctx := context.Background()
	tr := FromContext(ctx)
	if tr != nil {
		t.Fatal("FromContext on empty context should be nil")
	}
	ctx2, sp := tr.Start(ctx, "x")
	if ctx2 != ctx || sp != nil {
		t.Fatal("nil tracer Start must return ctx unchanged and nil span")
	}
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.End()
	sp.EndInstant()
	if child := sp.Child("y"); child != nil {
		t.Fatal("nil span Child must be nil")
	}
	if tr.StartRoot("r") != nil {
		t.Fatal("nil tracer StartRoot must be nil")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("SpanFromContext on empty context should be nil")
	}
}

// TestTracingOffZeroAllocs is the hot-path gate: the full
// instrumentation sequence with tracing disabled must not allocate.
// scripts/check.sh runs this as a regression gate.
func TestTracingOffZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := FromContext(ctx)
		ctx2, sp := tr.Start(ctx, "job")
		sp.SetStr("kind", "fig4-cell")
		sp.SetInt("job", 7)
		sp.SetUint("seed", 99)
		child := sp.Child("cache.probe")
		child.End()
		ev := SpanFromContext(ctx2).Child("dpcs.transition")
		ev.EndInstant()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per run, want 0", allocs)
	}
}

// TestJSONLRoundTrip checks spans survive the sidecar format, that
// Sync leaves whole lines on disk mid-stream, and that Record after
// Close drops without error.
func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(sink)
	_, sp := tr.Start(context.Background(), "a")
	sp.SetStr("k", "v")
	sp.End()
	if err := sink.Sync(); err != nil {
		t.Fatal(err)
	}
	// After Sync the file must already hold the first complete line.
	if spans, err := ReadFile(path); err != nil || len(spans) != 1 {
		t.Fatalf("after Sync: spans=%d err=%v", len(spans), err)
	}
	ev := sp.Child("b")
	ev.EndInstant()
	if sink.Len() != 2 {
		t.Fatalf("sink recorded %d spans, want 2", sink.Len())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	tr.StartRoot("late").End() // must drop silently
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	spans, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "a" || spans[0].Attrs["k"] != "v" {
		t.Errorf("span 0 = %+v", spans[0])
	}
	if spans[1].Name != "b" || spans[1].Kind != KindInstant || spans[1].Parent != spans[0].ID {
		t.Errorf("span 1 = %+v", spans[1])
	}
}

// TestJSONLConcurrentRecord hammers one sink from many goroutines and
// checks every line decodes whole (run under -race in check).
func TestJSONLConcurrentRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName)
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(sink)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartRoot("s")
				sp.SetInt("worker", int64(w))
				sp.End()
				if i%10 == 0 {
					sink.Sync()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != workers*per {
		t.Fatalf("got %d spans, want %d", len(spans), workers*per)
	}
}

// TestTeeFansOut checks multi-sink delivery.
func TestTeeFansOut(t *testing.T) {
	var a, b Collector
	n := 0
	tr := New(Tee(&a, &b, SinkFunc(func(*Span) { n++ })))
	tr.StartRoot("x").End()
	if len(a.Snapshot()) != 1 || len(b.Snapshot()) != 1 || n != 1 {
		t.Fatalf("tee delivery a=%d b=%d fn=%d", len(a.Snapshot()), len(b.Snapshot()), n)
	}
}

// TestTraceIDsDistinct checks two tracers created back-to-back get
// distinct trace IDs even within one nanosecond tick.
func TestTraceIDsDistinct(t *testing.T) {
	a, b := New(nil), New(nil)
	if a.TraceID() == b.TraceID() || a.TraceID() == "" {
		t.Fatalf("trace IDs %q vs %q", a.TraceID(), b.TraceID())
	}
	// A tracer with a nil sink must still be usable.
	_, sp := a.Start(context.Background(), "x")
	sp.End()
}
