// Package runner is the experiment orchestration subsystem: it executes
// a campaign — a slice of self-describing experiment specs — across a
// pool of workers, with deterministic per-job seeding, panic isolation,
// cancellation, progress reporting, and an optional JSON-lines artifact
// store under runs/<timestamp>/. Run is the only producer of a
// campaign's lifecycle events (obs.JobEvent): it stamps each once and
// writes it to timeline.jsonl and Options.OnEvent, which pcs serve's
// /events stream and campaign state are built from.
//
// Determinism: each job's seed is derived from the campaign seed and the
// job's index with stats.Derive, so an 8-worker run produces result
// records byte-identical to a 1-worker run of the same campaign. Result
// records never include wall-clock data for the same reason; timing
// lives in Progress and in the campaign manifest.
//
// # Concurrency contract
//
// Kind functions (see Registry) run concurrently on multiple goroutines.
// They must not share mutable state across calls: every stochastic
// component must draw from an RNG constructed inside the call from the
// given seed, and every simulator instance must be built inside the
// call. All simulator substrates in this repository (cpusim, multicore,
// faultmodel, trace) follow that shape — construction takes a seed and
// the resulting object is confined to one goroutine.
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/resultstore"
	"repro/internal/stats"
)

// Spec is one self-describing experiment: a registered kind plus its
// JSON-encoded parameters. Specs are the unit of work submitted to the
// pool and the unit serialised over the pcs-server wire protocol.
type Spec struct {
	// Kind names a function in the Registry.
	Kind string `json:"kind"`
	// Name optionally labels the job in records and progress output.
	Name string `json:"name,omitempty"`
	// Params is the kind-specific parameter document.
	Params json.RawMessage `json:"params,omitempty"`
}

// Campaign is an ordered batch of experiment specs sharing one seed.
type Campaign struct {
	Name string `json:"name"`
	// Seed is the campaign master seed; job i runs with
	// stats.Derive(Seed, i) unless its kind overrides seeding.
	Seed uint64 `json:"seed"`
	Jobs []Spec `json:"jobs"`
}

// Status is a job's terminal state.
type Status string

const (
	// StatusDone marks a job whose kind function returned without error.
	StatusDone Status = "done"
	// StatusFailed marks a job whose kind function returned an error or
	// panicked; the campaign continues.
	StatusFailed Status = "failed"
	// StatusCancelled marks a job abandoned because the campaign
	// context was cancelled.
	StatusCancelled Status = "cancelled"
)

// JobResult is the deterministic record of one job. It is what the
// artifact store writes as one JSON line and what the server streams.
type JobResult struct {
	Index  int    `json:"index"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Seed   uint64 `json:"seed"`
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	Output any    `json:"output,omitempty"`
	// Duration is the job's wall-clock run time. It is excluded from
	// JSON so results.jsonl stays byte-identical across worker counts;
	// wall-clock timing belongs to the timeline artifact.
	Duration time.Duration `json:"-"`
	// Cached marks a result served from Options.Cache instead of
	// computed. Excluded from JSON for the same determinism reason as
	// Duration: a cached re-run must reproduce results.jsonl
	// byte-identically. Cache provenance is recorded in timeline.jsonl
	// and ledger.jsonl.
	Cached bool `json:"-"`
	// Resources is the job's measured resource-attribution block (CPU
	// time, allocations, cache probe outcome). Excluded from JSON like
	// Duration: it is wall-clock data and belongs to the timeline.
	Resources *obs.JobResources `json:"-"`
}

// Progress is a snapshot of a running campaign.
type Progress struct {
	Total     int `json:"total"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	Running   int `json:"running"`
	// Elapsed is the wall-clock time since the campaign started.
	Elapsed time.Duration `json:"elapsed_ns"`
	// JobsPerSec is the completion rate so far (done+failed per second).
	JobsPerSec float64 `json:"jobs_per_sec"`
	// ETA estimates the remaining wall-clock time from the current rate;
	// zero until at least one job has finished.
	ETA time.Duration `json:"eta_ns"`
}

// Completed returns how many jobs have reached a terminal state.
func (p Progress) Completed() int { return p.Done + p.Failed + p.Cancelled }

// Options configure one campaign execution. The callbacks observe the
// run without owning any of it: OnEvent sees the lifecycle stream Run
// writes to timeline.jsonl, OnResult and OnProgress see each job's
// record and the running counts, and Cache is the one result store
// type (*resultstore.Store).
type Options struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// ArtifactDir, when non-empty, is the directory (typically
	// runs/<timestamp>, see NewRunDir) that receives manifest.json and
	// results.jsonl.
	ArtifactDir string
	// OnProgress, when non-nil, is called (serialised) after every job
	// reaches a terminal state.
	OnProgress func(Progress)
	// OnResult, when non-nil, is called (serialised) with each job's
	// result as it completes, in completion order.
	OnResult func(JobResult)
	// OnEvent, when non-nil, receives every campaign lifecycle event
	// (serialised, in timeline.jsonl order): campaign_started, each
	// job's job_started and terminal event, then campaign_finished,
	// whose State is CampaignResult.State. Run is the only producer of
	// these events; each is stamped once and written to timeline.jsonl
	// (with an ArtifactDir) and handed to OnEvent as the same value.
	OnEvent func(obs.JobEvent)
	// JobContext, when non-nil, decorates each job's context before the
	// kind function sees it — e.g. attaching a per-job telemetry sink
	// with obs.ContextWithPolicySink.
	JobContext func(ctx context.Context, index int, spec Spec) context.Context
	// Cache, when non-nil, memoizes job outputs content-addressed by
	// (kind, canonical params, effective seed, CodeVersion): runJob
	// consults it before executing and stores successful outputs after.
	// Only kinds registered with a DecodeOutput (see KindInfo) ever hit
	// the cache. Cache failures degrade to recomputation, never to
	// campaign failure.
	Cache *resultstore.Store
	// CodeVersion is the build identity mixed into every cache key (a
	// rebuild with different code must miss) and recorded in the run
	// ledger. Empty is allowed but conflates builds; the pcs CLI always
	// passes version.String().
	CodeVersion string
	// TraceSpans enables span tracing: with an ArtifactDir the run
	// gains a spans.jsonl sidecar (hash-chained into the ledger), and
	// the campaign/job/phase span tree is delivered to SpanSink if one
	// is installed. Off by default: the disabled path costs zero
	// allocations (see internal/obs/tracez) and results.jsonl is
	// byte-identical either way.
	TraceSpans bool
	// SpanSink, when non-nil (and TraceSpans is set), additionally
	// receives every finished span live — the server uses it to feed
	// GET /campaigns/{id}/spans while the campaign runs.
	SpanSink tracez.Sink
	// OnArtifacts, when non-nil, is called once with the run's artifact
	// store before any job starts, so callers can flush-and-fsync the
	// wall-clock sidecars on demand (server drain).
	OnArtifacts func(ArtifactSyncer)
	// NoWorkerState disables per-worker reusable state (KindInfo's
	// NewWorkerState): every job then runs cold, allocating from
	// scratch. Outputs must be byte-identical either way; differential
	// tests and cold benchmarks set this to compare against the warm
	// arena path.
	NoWorkerState bool
}

// ArtifactSyncer flushes buffered artifact sidecars (timeline.jsonl,
// spans.jsonl) to durable storage. Safe for concurrent use with the
// writers.
type ArtifactSyncer interface {
	SyncArtifacts() error
}

// CampaignResult is the outcome of a campaign execution.
type CampaignResult struct {
	Name    string `json:"name"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// Results holds one entry per job, in job-index order.
	Results []JobResult `json:"results"`
	Done    int         `json:"done"`
	Failed  int         `json:"failed"`
	// Cancelled counts jobs abandoned due to context cancellation.
	Cancelled int `json:"cancelled"`
	// Cached counts done jobs that were served from Options.Cache.
	Cached      int           `json:"cached,omitempty"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	ArtifactDir string        `json:"artifact_dir,omitempty"`
}

// State is the campaign's terminal state, carried by the
// campaign_finished event: "cancelled" if any job was cancelled, else
// "failed" if any job failed, else "done".
func (r *CampaignResult) State() string {
	switch {
	case r.Cancelled > 0:
		return "cancelled"
	case r.Failed > 0:
		return "failed"
	}
	return "done"
}

// JobSeed returns job i's derived seed under campaign seed.
func JobSeed(campaignSeed uint64, index int) uint64 {
	return stats.Derive(campaignSeed, uint64(index))
}

// Run executes every job of the campaign on a worker pool and returns
// the per-job results in job-index order. The returned error is non-nil
// only for setup problems (unknown kind, artifact I/O) or context
// cancellation; individual job failures are reported in the results.
func Run(ctx context.Context, reg *Registry, c Campaign, opts Options) (*CampaignResult, error) {
	if len(c.Jobs) == 0 {
		return nil, fmt.Errorf("runner: campaign %q has no jobs", c.Name)
	}
	// Validate every kind up front so a typo fails fast rather than
	// halfway through an expensive campaign.
	for i, s := range c.Jobs {
		if _, ok := reg.Lookup(s.Kind); !ok {
			return nil, fmt.Errorf("runner: job %d: unknown kind %q (registered: %v)", i, s.Kind, reg.Kinds())
		}
	}
	workers := poolSize(opts.Workers, len(c.Jobs))

	var store *artifactStore
	if opts.ArtifactDir != "" {
		var err error
		store, err = newArtifactStore(opts.ArtifactDir, c, workers, opts.CodeVersion, opts.TraceSpans)
		if err != nil {
			return nil, err
		}
		if opts.OnArtifacts != nil {
			opts.OnArtifacts(store)
		}
		// Killed or cancelled runs must never leave torn sidecar lines:
		// flush and fsync the moment the context dies, without waiting
		// for workers to notice.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				_ = store.SyncArtifacts()
			case <-watchDone:
			}
		}()
	}

	// Span tracing: the tracer tees into the run directory's
	// spans.jsonl (if any) and the caller's live sink (if any). A nil
	// tracer costs nothing at the instrumentation sites.
	var tracer *tracez.Tracer
	if opts.TraceSpans {
		var sinks []tracez.Sink
		if store != nil && store.spans != nil {
			sinks = append(sinks, store.spans)
		}
		if opts.SpanSink != nil {
			sinks = append(sinks, opts.SpanSink)
		}
		switch len(sinks) {
		case 0:
			// Tracing on but nowhere to deliver: leave the tracer nil.
		case 1:
			tracer = tracez.New(sinks[0])
		default:
			tracer = tracez.New(tracez.Tee(sinks...))
		}
	}

	// emit stamps one lifecycle event and delivers it to timeline.jsonl
	// and OnEvent. Job events are emitted under mu, so delivery order is
	// file order and offsets never run backwards.
	start := time.Now()
	emit := func(ev obs.JobEvent) {
		ev.ElapsedMS = float64(time.Since(start).Microseconds()) / 1e3
		if store != nil {
			store.writeEvent(ev)
		}
		if opts.OnEvent != nil {
			opts.OnEvent(ev)
		}
	}
	emit(obs.JobEvent{Type: obs.EventCampaignStarted, Campaign: c.Name, Index: -1})
	results := make([]JobResult, len(c.Jobs))
	indices := make(chan int)
	var (
		mu   sync.Mutex
		prog = Progress{Total: len(c.Jobs)}
		wg   sync.WaitGroup
	)
	finish := func(r JobResult) {
		mu.Lock()
		defer mu.Unlock()
		prog.Running--
		switch r.Status {
		case StatusFailed:
			prog.Failed++
		case StatusCancelled:
			prog.Cancelled++
		default:
			prog.Done++
		}
		prog.Elapsed = time.Since(start)
		if n := prog.Completed(); n > 0 && prog.Elapsed > 0 {
			prog.JobsPerSec = float64(n) / prog.Elapsed.Seconds()
			remaining := prog.Total - n
			prog.ETA = time.Duration(float64(remaining) / prog.JobsPerSec * float64(time.Second))
		}
		if opts.OnResult != nil {
			opts.OnResult(r)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(prog)
		}
		emit(jobEvent(r))
	}

	// The campaign span roots the trace; job spans parent under it via
	// the context the workers share.
	ctxJobs := ctx
	var campSpan *tracez.Span
	if tracer != nil {
		ctxJobs = tracez.ContextWith(ctx, tracer)
		ctxJobs, campSpan = tracer.Start(ctxJobs, "campaign")
		campSpan.SetStr("campaign", c.Name)
		campSpan.SetUint("seed", c.Seed)
		campSpan.SetInt("jobs", int64(len(c.Jobs)))
		campSpan.SetInt("workers", int64(workers))
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// states holds this worker's reusable per-kind state (see
			// KindInfo.NewWorkerState), built lazily and confined to
			// this goroutine for the campaign's lifetime.
			var states map[string]any
			for i := range indices {
				mu.Lock()
				prog.Running++
				emit(obs.JobEvent{Type: obs.EventJobStarted, Index: i, Kind: c.Jobs[i].Kind, Name: c.Jobs[i].Name})
				mu.Unlock()
				if states == nil {
					states = make(map[string]any)
				}
				results[i] = runJob(ctxJobs, reg, c, i, worker, states, opts)
				finish(results[i])
			}
		}(w)
	}
feed:
	for i := range c.Jobs {
		select {
		case indices <- i:
		case <-ctx.Done():
			// Mark the never-dispatched tail cancelled.
			for j := i; j < len(c.Jobs); j++ {
				results[j] = cancelledResult(c, j)
			}
			break feed
		}
	}
	close(indices)
	wg.Wait()

	res := &CampaignResult{
		Name:    c.Name,
		Seed:    c.Seed,
		Workers: workers,
		Results: results,
		Elapsed: time.Since(start),
	}
	for _, r := range results {
		switch r.Status {
		case StatusDone:
			res.Done++
			if r.Cached {
				res.Cached++
			}
		case StatusFailed:
			res.Failed++
		case StatusCancelled:
			res.Cancelled++
		}
	}
	if campSpan != nil {
		campSpan.SetInt("done", int64(res.Done))
		campSpan.SetInt("failed", int64(res.Failed))
		campSpan.SetInt("cancelled", int64(res.Cancelled))
		campSpan.End()
	}
	emit(obs.JobEvent{Type: obs.EventCampaignFinished, Campaign: c.Name, Index: -1, State: res.State()})
	if store != nil {
		res.ArtifactDir = store.dir
		if err := store.finish(results, res, tracer); err != nil {
			return res, err
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// poolSize resolves a campaign's worker count: <= 0 means
// runtime.GOMAXPROCS(0), and a pool never exceeds the job count.
func poolSize(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, jobs)
}

// jobEvent is the terminal lifecycle event of a finished job.
func jobEvent(r JobResult) obs.JobEvent {
	typ := obs.EventJobDone
	switch r.Status {
	case StatusFailed:
		typ = obs.EventJobFailed
	case StatusCancelled:
		typ = obs.EventJobCancelled
	}
	return obs.JobEvent{
		Type:       typ,
		Index:      r.Index,
		Kind:       r.Kind,
		Name:       r.Name,
		Error:      r.Error,
		DurationMS: float64(r.Duration.Microseconds()) / 1e3,
		Cached:     r.Cached,
		Resources:  r.Resources,
	}
}

// runJob executes one job with panic isolation: a panicking kind
// function marks its own job failed instead of killing the campaign.
// It also owns the job's observability: a job span (child of the
// campaign span when tracing is on, nothing otherwise) with cache
// probe / store write children, and the resource-attribution probe
// whose block rides the job's terminal timeline event.
func runJob(ctx context.Context, reg *Registry, c Campaign, i, worker int, states map[string]any, opts Options) (res JobResult) {
	spec := c.Jobs[i]
	res = JobResult{Index: i, Kind: spec.Kind, Name: spec.Name, Seed: JobSeed(c.Seed, i)}
	tr := tracez.FromContext(ctx)
	ctx, span := tr.Start(ctx, "job")
	span.SetInt("job", int64(i))
	span.SetStr("kind", spec.Kind)
	if spec.Name != "" {
		span.SetStr("name", spec.Name)
	}
	span.SetUint("seed", res.Seed)
	span.SetInt("worker", int64(worker))
	probe := startResourceProbe()
	jobStart := time.Now()
	defer func() {
		res.Duration = time.Since(jobStart)
		if p := recover(); p != nil {
			res.Status = StatusFailed
			res.Output = nil
			res.Error = fmt.Sprintf("panic: %v\n%s", p, debug.Stack())
		}
		r := probe.stop(res.Duration)
		r.CacheHit = res.Cached
		if rc, ok := res.Output.(obs.ResourceCounter); ok {
			r.Transitions, r.Writebacks = rc.ResourceCounts()
		}
		res.Resources = r
		span.SetStr("status", string(res.Status))
		if res.Cached {
			span.SetBool("cached", true)
		}
		span.End()
	}()
	if ctx.Err() != nil {
		return cancelledResult(c, i)
	}
	if opts.JobContext != nil {
		ctx = opts.JobContext(ctx, i, spec)
	}
	fn, _ := reg.Lookup(spec.Kind)
	info := reg.Info(spec.Kind)

	// Per-worker reusable state: built on the worker's first job of
	// this kind, then handed to every later one. Disabled (cold path)
	// under Options.NoWorkerState.
	if !opts.NoWorkerState && info.NewWorkerState != nil {
		st, ok := states[spec.Kind]
		if !ok {
			st = info.NewWorkerState()
			states[spec.Kind] = st
		}
		ctx = ContextWithWorkerState(ctx, st)
	}

	// Content-addressed memoization: only kinds that can reconstruct
	// their concrete output type from stored bytes participate.
	var cacheKey string
	if opts.Cache != nil && info.DecodeOutput != nil {
		key, err := resultstore.Key(spec.Kind, spec.Params, effectiveSeed(info, spec.Params, res.Seed), opts.CodeVersion)
		if err == nil {
			cacheKey = key
			psp := span.Child("cache.probe")
			data, ok, _ := opts.Cache.Get(key)
			if ok {
				if out, derr := info.DecodeOutput(data); derr == nil {
					psp.SetBool("hit", true)
					psp.SetInt("bytes", int64(len(data)))
					psp.End()
					res.Status = StatusDone
					res.Output = out
					res.Cached = true
					return res
				}
				// An undecodable entry (e.g. written by an incompatible
				// build despite the version key) falls through to compute.
			}
			psp.SetBool("hit", false)
			psp.End()
			probe.cacheMiss = true
		}
	}

	// The kind call runs under pprof labels naming the job, so CPU
	// profiles slice per kind and per cell; goroutines the kind starts
	// (the trace-pipe producer) inherit them.
	var out any
	var err error
	pprof.Do(ctx, pprof.Labels("kind", spec.Kind, "cell", obs.CellLabel(spec.Kind, spec.Name, i)), func(ctx context.Context) {
		out, err = fn(ctx, res.Seed, spec.Params)
	})
	if err != nil {
		if ctx.Err() != nil {
			res.Status = StatusCancelled
			res.Error = context.Cause(ctx).Error()
			return res
		}
		res.Status = StatusFailed
		res.Error = err.Error()
		return res
	}
	res.Status = StatusDone
	res.Output = out
	if cacheKey != "" {
		// Best effort: a Put failure leaves the result intact and the
		// cell recomputable next time.
		if data, err := json.Marshal(out); err == nil {
			wsp := span.Child("store.write")
			wsp.SetInt("bytes", int64(len(data)))
			_ = opts.Cache.Put(cacheKey, data)
			wsp.End()
		}
	}
	return res
}

// effectiveSeed resolves the seed component of a cell's cache key,
// mirroring the kinds' own seeding convention: unseeded analytical
// kinds hash as 0 (their output cannot depend on the seed), kinds
// whose params pin a non-zero top-level "seed" hash that pin, and
// everything else hashes the runner-derived per-job seed.
func effectiveSeed(info KindInfo, params json.RawMessage, derived uint64) uint64 {
	if !info.Seeded {
		return 0
	}
	var p struct {
		Seed uint64 `json:"seed"`
	}
	if len(params) > 0 {
		// Loose parse: params that fail here fail properly in the kind
		// function.
		_ = json.Unmarshal(params, &p)
	}
	if p.Seed != 0 {
		return p.Seed
	}
	return derived
}

func cancelledResult(c Campaign, i int) JobResult {
	return JobResult{
		Index:  i,
		Kind:   c.Jobs[i].Kind,
		Name:   c.Jobs[i].Name,
		Seed:   JobSeed(c.Seed, i),
		Status: StatusCancelled,
		Error:  context.Canceled.Error(),
	}
}
