// Package tracez is a lightweight, zero-dependency span tracer for
// campaign executions: causally nested spans (campaign → job →
// simulator phase → resultstore/ledger operation) with wall-clock
// timing and typed attributes, serialised as JSON lines and exportable
// to the Chrome trace-event format (see chrome.go) for Perfetto.
//
// The design constraint is the repository's hot-path budget: with
// tracing disabled every instrumentation site must cost two context
// lookups at most and zero heap allocations. That is achieved by
// making every method nil-receiver safe — FromContext returns a nil
// *Tracer when no tracer is installed, Start on a nil tracer returns a
// nil *Span, and all Span methods no-op on nil — and by using typed
// attribute setters (SetStr/SetInt/...) instead of variadic ...any
// parameters, which would box arguments at the call site even when the
// span is nil. The disabled path is asserted alloc-free by
// TestTracingOffZeroAllocs and gated in scripts/check.sh.
//
// Spans are phase-granular, never per-instruction: the simulator's
// instruction loop is untouched; only phase boundaries (warmup,
// measurement, energy rollup) and DPCS transition instants are
// recorded.
package tracez

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// FileName is the span sidecar's name inside a run directory.
const FileName = "spans.jsonl"

// KindInstant marks a zero-duration point event (a DPCS
// transition, for example) rather than an interval.
const KindInstant = "instant"

// Span is one traced interval (or instant). The JSON field names are
// the spans.jsonl wire format.
type Span struct {
	// Trace identifies the campaign execution; all spans of one Run
	// share it. It is the cross-node correlation key a distributed
	// fabric would propagate.
	Trace string `json:"trace"`
	// ID is unique within the trace; Parent is the enclosing span's ID
	// ("" for the root campaign span).
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Kind is "" for an interval span, KindInstant for a point event.
	Kind string `json:"kind,omitempty"`
	// StartUnixNS and DurNS carry wall-clock placement and duration.
	// Spans deliberately never feed result records: like
	// timeline.jsonl, spans.jsonl varies run to run and is excluded
	// from determinism comparisons.
	StartUnixNS int64          `json:"start_unix_ns"`
	DurNS       int64          `json:"dur_ns"`
	Attrs       map[string]any `json:"attrs,omitempty"`

	tracer *Tracer
	start  time.Time // monotonic anchor for DurNS
}

// Tracer creates spans and delivers finished ones to its Sink. Safe
// for concurrent use; a nil *Tracer is a valid no-op tracer.
type Tracer struct {
	sink  Sink
	trace string
	seq   atomic.Uint64
}

// traceSeq disambiguates tracers created within the same nanosecond.
var traceSeq atomic.Uint64

// New returns a tracer delivering finished spans to sink.
func New(sink Sink) *Tracer {
	return &Tracer{
		sink:  sink,
		trace: fmt.Sprintf("%x-%x", time.Now().UnixNano(), traceSeq.Add(1)),
	}
}

// TraceID returns the trace identifier shared by this tracer's spans.
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.trace
}

func (t *Tracer) newSpan(parent, name string) *Span {
	return &Span{
		Trace:       t.trace,
		ID:          fmt.Sprintf("%x", t.seq.Add(1)),
		Parent:      parent,
		Name:        name,
		StartUnixNS: time.Now().UnixNano(),
		tracer:      t,
		start:       time.Now(),
	}
}

// Start begins a span as a child of ctx's current span (if any) and
// returns a context carrying the new span as current. On a nil tracer
// it returns ctx unchanged and a nil span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	parent := ""
	if ps := SpanFromContext(ctx); ps != nil {
		parent = ps.ID
	}
	sp := t.newSpan(parent, name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// StartRoot begins a parentless span without touching any context —
// for bookkeeping work (results write, ledger append) that happens
// outside the job tree. Nil-safe.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan("", name)
}

// Child begins a span nested under sp without involving a context.
// Nil-safe: a nil parent yields a nil child.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.tracer.newSpan(sp.ID, name)
}

// SetStr attaches a string attribute. All setters are nil-safe and
// must be called before End.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

// SetInt attaches an integer attribute.
func (sp *Span) SetInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

// SetUint attaches an unsigned integer attribute.
func (sp *Span) SetUint(key string, v uint64) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

// SetFloat attaches a float attribute.
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

// SetBool attaches a boolean attribute.
func (sp *Span) SetBool(key string, v bool) {
	if sp == nil {
		return
	}
	sp.set(key, v)
}

func (sp *Span) set(key string, v any) {
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]any, 4)
	}
	sp.Attrs[key] = v
}

// End stamps the span's duration and delivers it to the tracer's sink.
// Nil-safe; calling End twice delivers the span twice, so don't.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.DurNS = int64(time.Since(sp.start))
	sp.tracer.record(sp)
}

// EndInstant marks the span as a point event (zero duration, Kind
// "instant") and delivers it. Use for point occurrences like DPCS
// transitions where the duration is meaningless at span granularity.
func (sp *Span) EndInstant() {
	if sp == nil {
		return
	}
	sp.Kind = KindInstant
	sp.DurNS = 0
	sp.tracer.record(sp)
}

func (t *Tracer) record(sp *Span) {
	if t.sink != nil {
		t.sink.Record(sp)
	}
}

// Context propagation. Two independent keys: the tracer (installed
// once per campaign) and the current span (rebound by Start as the
// tree deepens). Zero-size key types box to the runtime's shared zero
// object, so context lookups on the disabled path do not allocate.
type (
	tracerKey struct{}
	spanKey   struct{}
)

// ContextWith returns a context carrying the tracer.
func ContextWith(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil — and a nil tracer
// is safe to use directly, so callers never need to branch.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Sink receives finished spans. Implementations must be safe for
// concurrent use; spans arrive from every campaign worker.
type Sink interface {
	Record(sp *Span)
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(sp *Span)

// Record calls f.
func (f SinkFunc) Record(sp *Span) { f(sp) }

// Tee fans finished spans out to several sinks in order.
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(sp *Span) {
		for _, s := range sinks {
			s.Record(sp)
		}
	})
}

// Collector is an in-memory sink for tests and the server's live span
// buffer.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// Record appends a copy of the span.
func (c *Collector) Record(sp *Span) {
	c.mu.Lock()
	c.spans = append(c.spans, *sp)
	c.mu.Unlock()
}

// Snapshot returns a copy of the collected spans.
func (c *Collector) Snapshot() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// JSONL is a mutex-serialised JSON-lines span sink backed by a file.
// Record after Close silently drops (late spans — e.g. a ledger-append
// span recorded after the sidecar is hash-chained — still reach other
// Tee'd sinks).
type JSONL struct {
	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	enc    *json.Encoder
	err    error
	closed bool
	n      int
}

// CreateJSONL creates (truncating) path and returns a sink writing one
// span per line.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("tracez: %w", err)
	}
	s := &JSONL{f: f, w: bufio.NewWriter(f)}
	s.enc = json.NewEncoder(s.w)
	return s, nil
}

// Record writes one span line. Write errors latch and surface from
// Err/Close.
func (s *JSONL) Record(sp *Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	if err := s.enc.Encode(sp); err != nil {
		s.err = fmt.Errorf("tracez: encode span: %w", err)
		return
	}
	s.n++
}

// Len returns how many spans have been written.
func (s *JSONL) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first latched write error.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Sync flushes buffered lines and fsyncs the file, so a killed process
// never leaves a torn line on disk. Safe to call concurrently with
// Record and after Close (then a no-op).
func (s *JSONL) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *JSONL) syncLocked() error {
	if s.closed {
		return s.err
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: flush spans: %w", err)
	}
	if err := s.f.Sync(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: fsync spans: %w", err)
	}
	return s.err
}

// Close flushes and closes the file. Further Records drop.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: flush spans: %w", err)
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = fmt.Errorf("tracez: close spans: %w", err)
	}
	s.closed = true
	return s.err
}

// ReadSpans decodes a spans.jsonl stream.
func ReadSpans(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var spans []Span
	for {
		var sp Span
		if err := dec.Decode(&sp); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("tracez: span %d: %w", len(spans), err)
		}
		spans = append(spans, sp)
	}
}

// ReadFile reads a spans.jsonl file.
func ReadFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracez: %w", err)
	}
	defer f.Close()
	return ReadSpans(f)
}
