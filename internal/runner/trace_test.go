package runner

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/resultstore"
)

// TestTracingDoesNotChangeResults extends the determinism contract to
// tracing: a traced 8-worker run must produce byte-identical
// results.jsonl to an untraced 1-worker run. Spans and resource
// attribution live only in the sidecars, never in the result records.
func TestTracingDoesNotChangeResults(t *testing.T) {
	reg := testRegistry(t)
	read := func(workers int, trace bool) []byte {
		dir := filepath.Join(t.TempDir(), "run")
		_, err := Run(context.Background(), reg, drawSumCampaign(30), Options{
			Workers: workers, ArtifactDir: dir, TraceSpans: trace,
		})
		if err != nil {
			t.Fatalf("workers=%d trace=%v: %v", workers, trace, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := read(1, false)
	traced := read(8, true)
	if string(plain) != string(traced) {
		t.Fatalf("traced results.jsonl differs from untraced run:\nuntraced:\n%s\ntraced:\n%s", plain, traced)
	}
}

// TestSpansReconcileWithTimeline runs a traced campaign and checks the
// three artifact views agree: spans.jsonl holds one campaign root and
// exactly one job span per job (job attrs matching indices), the
// timeline's terminal events carry resource attribution, and the ledger
// hash-chains both sidecars so tampering with spans.jsonl after the run
// is detected.
func TestSpansReconcileWithTimeline(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	const jobs = 12
	res, err := Run(context.Background(), reg, drawSumCampaign(jobs), Options{
		Workers: 4, ArtifactDir: dir, TraceSpans: true, CodeVersion: "v-trace",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != jobs {
		t.Fatalf("done=%d want %d", res.Done, jobs)
	}

	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatal(err)
	}
	var campaignSpan *tracez.Span
	jobSpans := make(map[int64]tracez.Span)
	for i, sp := range spans {
		if sp.Trace == "" || sp.ID == "" {
			t.Fatalf("span %d missing identity: %+v", i, sp)
		}
		switch sp.Name {
		case "campaign":
			if campaignSpan != nil {
				t.Fatal("more than one campaign span")
			}
			c := sp
			campaignSpan = &c
		case "job":
			idx, ok := sp.Attrs["job"].(float64)
			if !ok {
				t.Fatalf("job span without job attr: %+v", sp)
			}
			if _, dup := jobSpans[int64(idx)]; dup {
				t.Fatalf("duplicate job span for index %d", int64(idx))
			}
			jobSpans[int64(idx)] = sp
		}
	}
	if campaignSpan == nil {
		t.Fatal("no campaign span recorded")
	}
	if len(jobSpans) != jobs {
		t.Fatalf("got %d job spans, want %d", len(jobSpans), jobs)
	}
	for idx, sp := range jobSpans {
		if sp.Parent != campaignSpan.ID {
			t.Errorf("job %d span parent %q, want campaign %q", idx, sp.Parent, campaignSpan.ID)
		}
		if sp.Trace != campaignSpan.Trace {
			t.Errorf("job %d span trace %q, want %q", idx, sp.Trace, campaignSpan.Trace)
		}
		if status, _ := sp.Attrs["status"].(string); status != string(StatusDone) {
			t.Errorf("job %d span status %q", idx, status)
		}
		if sp.DurNS < 0 {
			t.Errorf("job %d span has negative duration %d", idx, sp.DurNS)
		}
	}
	if got, _ := campaignSpan.Attrs["done"].(float64); int(got) != jobs {
		t.Errorf("campaign span done=%v want %d", campaignSpan.Attrs["done"], jobs)
	}

	// Terminal timeline events must carry the attribution block and
	// reconcile 1:1 with the job spans.
	events, err := obs.ReadJobTimeline(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	terminal := 0
	for _, ev := range events {
		if ev.Type != obs.EventJobDone && ev.Type != obs.EventJobFailed && ev.Type != obs.EventJobCancelled {
			continue
		}
		terminal++
		if ev.Resources == nil {
			t.Fatalf("terminal event for job %d has no resources block", ev.Index)
		}
		if ev.Resources.WallMS <= 0 {
			t.Errorf("job %d wall_ms = %v, want > 0", ev.Index, ev.Resources.WallMS)
		}
		if _, ok := jobSpans[int64(ev.Index)]; !ok {
			t.Errorf("terminal event for job %d has no matching span", ev.Index)
		}
	}
	if terminal != jobs {
		t.Fatalf("%d terminal events, want %d", terminal, jobs)
	}

	// The manifest names both sidecars and the ledger chains them.
	mb, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Sidecars []string `json:"sidecars"`
	}
	if err := json.Unmarshal(mb, &m); err != nil {
		t.Fatal(err)
	}
	wantSidecars := []string{"timeline.jsonl", tracez.FileName}
	if len(m.Sidecars) != 2 || m.Sidecars[0] != wantSidecars[0] || m.Sidecars[1] != wantSidecars[1] {
		t.Fatalf("manifest sidecars %v, want %v", m.Sidecars, wantSidecars)
	}
	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatalf("traced run's ledger does not verify: %v", err)
	}
	if len(rep.Sidecars) != 2 {
		t.Fatalf("ledger has %d sidecar entries, want 2: %+v", len(rep.Sidecars), rep.Sidecars)
	}
	for i, sc := range rep.Sidecars {
		if sc.Name != wantSidecars[i] {
			t.Errorf("sidecar %d is %q, want %q", i, sc.Name, wantSidecars[i])
		}
		if sc.Bytes <= 0 || len(sc.Digest) != 64 {
			t.Errorf("sidecar %q has bytes=%d digest=%q", sc.Name, sc.Bytes, sc.Digest)
		}
	}

	// Tampering with a span sidecar after the run breaks verification.
	f, err := os.OpenFile(filepath.Join(dir, tracez.FileName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"name\":\"forged\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ledger.VerifyDir(dir); err == nil {
		t.Fatal("VerifyDir accepted a tampered spans.jsonl")
	} else if !strings.Contains(err.Error(), tracez.FileName) {
		t.Fatalf("tamper error does not name the sidecar: %v", err)
	}
}

// TestJobResourcesPopulated checks the in-memory results carry the
// attribution block even without an artifact directory, and that cache
// provenance flows into it: a second run against a warm store reports
// CacheHit with a recorded cache.probe hit span.
func TestJobResourcesPopulated(t *testing.T) {
	var execs atomic.Int64
	reg := cacheTestRegistry(t, &execs)
	store, err := resultstore.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	var col tracez.Collector
	run := func() *CampaignResult {
		res, err := Run(context.Background(), reg, countedCampaign("counted", 6), Options{
			Workers: 3, Cache: store, CodeVersion: "v-res",
			TraceSpans: true, SpanSink: &col,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res1 := run()
	for _, r := range res1.Results {
		if r.Resources == nil {
			t.Fatalf("job %d has no resources", r.Index)
		}
		if r.Resources.WallMS < 0 {
			t.Fatalf("job %d negative wall time: %+v", r.Index, r.Resources)
		}
		if r.Resources.CacheHit || !r.Resources.CacheMiss {
			t.Fatalf("cold run job %d: hit=%v miss=%v", r.Index, r.Resources.CacheHit, r.Resources.CacheMiss)
		}
	}

	res2 := run()
	if res2.Cached != 6 {
		t.Fatalf("warm run cached %d of 6", res2.Cached)
	}
	for _, r := range res2.Results {
		if !r.Resources.CacheHit || r.Resources.CacheMiss {
			t.Fatalf("warm run job %d: hit=%v miss=%v", r.Index, r.Resources.CacheHit, r.Resources.CacheMiss)
		}
	}
	var hits, misses int
	for _, sp := range col.Snapshot() {
		if sp.Name != "cache.probe" {
			continue
		}
		if hit, _ := sp.Attrs["hit"].(bool); hit {
			hits++
		} else {
			misses++
		}
	}
	if hits != 6 || misses != 6 {
		t.Fatalf("cache.probe spans: %d hits, %d misses; want 6/6", hits, misses)
	}
}

// TestCancelledTracedRunFlushesSpans extends the cancelled-run
// guarantee to the span sidecar: after cancellation, spans.jsonl holds
// only whole JSON lines and the ledger (including both sidecars) still
// verifies.
func TestCancelledTracedRunFlushesSpans(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := Campaign{Name: "cancel-traced", Seed: 5}
	for i := 0; i < 8; i++ {
		c.Jobs = append(c.Jobs, Spec{Kind: "block"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	res, err := Run(ctx, reg, c, Options{Workers: 2, ArtifactDir: dir, TraceSpans: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cancelled == 0 {
		t.Fatal("no jobs cancelled")
	}

	rep, err := ledger.VerifyDir(dir)
	if err != nil {
		t.Fatalf("cancelled traced run's ledger does not verify: %v", err)
	}
	if len(rep.Sidecars) != 2 {
		t.Fatalf("ledger has %d sidecars, want 2", len(rep.Sidecars))
	}
	spans, err := tracez.ReadFile(filepath.Join(dir, tracez.FileName))
	if err != nil {
		t.Fatalf("cancelled run's spans.jsonl is torn: %v", err)
	}
	var sawCampaign bool
	for _, sp := range spans {
		if sp.Name == "campaign" {
			sawCampaign = true
			if got, _ := sp.Attrs["cancelled"].(float64); int(got) != res.Cancelled {
				t.Errorf("campaign span cancelled=%v, run reported %d", sp.Attrs["cancelled"], res.Cancelled)
			}
		}
	}
	if !sawCampaign {
		t.Error("cancelled run recorded no campaign span")
	}
}
