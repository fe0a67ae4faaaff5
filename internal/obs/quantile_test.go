package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestHistogramQuantile checks the interpolated bucket-quantile
// estimate on a known distribution.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("q_test_seconds", "t", "kind", []float64{1, 2, 4, 8})
	h := v.With("a")

	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty histogram p50 = %v, want NaN", got)
	}

	// 10 observations uniformly in (0,1]: every quantile interpolates
	// inside the first bucket [0,1].
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	if got, want := h.Quantile(0.5), 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got, want := h.Quantile(1.0), 1.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("p100 = %v, want %v", got, want)
	}

	// Add 10 observations in (2,4]: 20 total, half <= 1, half in (2,4].
	for i := 0; i < 10; i++ {
		h.Observe(3)
	}
	// p75: rank 15, 10 below, 5 of 10 into the (2,4] bucket → 3.0.
	if got, want := h.Quantile(0.75), 3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("p75 = %v, want %v", got, want)
	}

	// Overflow: a value beyond the last bound pins high quantiles to
	// the largest finite bound.
	h.Observe(100)
	if got, want := h.Quantile(0.999), 8.0; got != want {
		t.Errorf("p99.9 with overflow = %v, want %v", got, want)
	}
}

// TestHistogramVecQuantiles checks the per-series map shape.
func TestHistogramVecQuantiles(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("qv_test_seconds", "t", "kind", []float64{1, 10})
	v.With("fast").Observe(0.5)
	v.With("slow").Observe(5)
	q := v.Quantiles(0.5)
	if len(q) != 2 {
		t.Fatalf("got %d series, want 2", len(q))
	}
	if q["fast"] >= q["slow"] {
		t.Errorf("p50 fast=%v slow=%v", q["fast"], q["slow"])
	}
}

// TestGaugeVecFunc checks scrape-time labelled gauges render sorted,
// valid exposition lines.
func TestGaugeVecFunc(t *testing.T) {
	r := NewRegistry()
	vals := map[string]float64{"b": 2, "a": 1.5}
	r.GaugeVecFunc("gvf_test", "derived gauge", "kind", func() map[string]float64 {
		return vals
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ia := strings.Index(out, `gvf_test{kind="a"} 1.5`)
	ib := strings.Index(out, `gvf_test{kind="b"} 2`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("exposition missing or unsorted series:\n%s", out)
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	// NaN values (empty histograms behind a quantile view) must render
	// as valid exposition too.
	vals["a"] = math.NaN()
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `gvf_test{kind="a"} NaN`) {
		t.Fatalf("NaN gauge not rendered:\n%s", buf.String())
	}
	if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("NaN exposition invalid: %v", err)
	}
}

// TestReadJobEventsRoundTrip checks the timeline reader, including the
// resource-attribution block. The fixture keeps the cpu_ms field that
// older builds wrote, so their timelines must still decode.
func TestReadJobEventsRoundTrip(t *testing.T) {
	in := `{"type":"campaign_started","campaign":"c","index":-1,"elapsed_ms":0}
{"type":"job_done","index":0,"kind":"k","elapsed_ms":5,"duration_ms":4.5,"resources":{"wall_ms":4.5,"cpu_ms":4.1,"allocs":12,"alloc_bytes":4096,"cache_miss":true,"transitions":3,"writebacks":7}}
{"type":"campaign_finished","campaign":"c","index":-1,"elapsed_ms":6,"state":"done"}
`
	events, err := ReadJobEvents(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	res := events[1].Resources
	if res == nil || res.Allocs != 12 || !res.CacheMiss || res.Writebacks != 7 {
		t.Fatalf("resources %+v", res)
	}
	if events[0].Resources != nil {
		t.Fatal("campaign_started should carry no resources")
	}
}
