package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/obs"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/version"
)

// campaigns is the campaign plumbing pcs sim, sweep and multicore
// share. Each command binds its grid flags into one config.Document
// section; load merges the -spec document under them, and run lowers
// the document with ExpandCampaign — the lowering POST /campaigns
// uses — and runs its one campaign. The commands bind their -spec,
// -runs, -trace, -cache, -progress and (sweep only) -timeline flags to
// the fields here; run gives the campaign the runner options and run
// directory, logs the closing "N cells: ..." line on stderr and fails
// on the first failed cell.
type campaigns struct {
	cmd      string // subcommand name, prefixing stderr lines
	spec     string // -spec document path
	runsRoot string
	trace    bool
	cacheDir string
	progress bool
	// timeline records each job's DPCS policy events in
	// policy-<index>.jsonl next to the campaign records.
	timeline bool
	// onResult, when set, sees every finished cell.
	onResult func(runner.JobResult)

	cache *resultstore.Store
}

// gridDocument returns a document holding doc's one grid section with
// every default filled in, ready for a command to bind its flags to:
// each flag default is read from here, so it is written only in
// internal/config.
func gridDocument(doc config.Document) *config.Document {
	doc.Version = config.Version
	doc.ApplyDefaults()
	return &doc
}

// load checks the flag combinations, opens the result cache and merges
// the -spec document into doc, whose grid section and seed/workers the
// command's flags are bound to. The document's values replace the flag
// defaults, then every flag set explicitly — on the command line or as
// PCS_<FLAG> — is put back, so the precedence is flag > environment >
// spec > default. The spec must carry the command's section.
func (c *campaigns) load(fs *flag.FlagSet, doc *config.Document) error {
	if c.trace && c.runsRoot == "" {
		return fmt.Errorf("-trace needs -runs (spans.jsonl lives next to the campaign records)")
	}
	if c.timeline && c.runsRoot == "" {
		return fmt.Errorf("-timeline needs -runs (per-job timelines live next to the campaign records)")
	}
	var err error
	if c.cache, err = openCache(c.cacheDir); err != nil || c.spec == "" {
		return err
	}
	spec, err := config.Load(c.spec)
	if err != nil {
		return err
	}
	explicit := make(map[string]string)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = f.Value.String() })
	if !adopt(doc.Sim, spec.Sim) && !adopt(doc.Sweep, spec.Sweep) && !adopt(doc.Multicore, spec.Multicore) {
		return fmt.Errorf("%s: pcs %s needs a %q spec section", c.spec, c.cmd, c.cmd)
	}
	// The flags point into doc's section, so adopt copied the spec's
	// section there; keep those pointers when taking the rest.
	spec.Sim, spec.Sweep, spec.Multicore = doc.Sim, doc.Sweep, doc.Multicore
	*doc = *spec
	for name, v := range explicit {
		if err := fs.Set(name, v); err != nil {
			return err
		}
	}
	return nil
}

// adopt copies src's section into dst when both are present.
func adopt[T any](dst, src *T) bool {
	if dst == nil || src == nil {
		return false
	}
	*dst = *src
	return true
}

// run validates doc, lowers it with ExpandCampaign and runs the one
// campaign, archived under <runs>/<doc.Name>/<timestamp> with -runs.
// A failed cell fails the command.
func (c *campaigns) run(doc *config.Document) ([]runner.JobResult, error) {
	doc.ApplyDefaults()
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	camp, err := doc.ExpandCampaign()
	if err != nil {
		return nil, err
	}
	name := doc.Name
	opts := runner.Options{Workers: doc.Workers, Cache: c.cache, CodeVersion: version.String(), OnResult: c.onResult}
	if c.runsRoot != "" {
		dir, err := runner.NewRunDir(filepath.Join(c.runsRoot, name))
		if err != nil {
			return nil, err
		}
		opts.ArtifactDir = dir
		opts.TraceSpans = c.trace
	}
	if c.progress {
		opts.OnProgress = func(p runner.Progress) {
			c.logf("%s: %d/%d done (%.1f jobs/s, ETA %s)",
				name, p.Completed(), p.Total, p.JobsPerSec, p.ETA.Round(1e8))
		}
	}
	// Per-job policy timelines: a JSONL sink on each job's context,
	// which the simulation kinds pick up via obs.PolicySinkFromContext.
	// Sinks close after the campaign, so a failed run still flushes
	// what it recorded.
	var (
		sinkMu sync.Mutex
		sinks  []*obs.JSONLSink
	)
	if c.timeline {
		opts.JobContext = func(ctx context.Context, i int, _ runner.Spec) context.Context {
			sink, err := obs.CreateJSONL(filepath.Join(opts.ArtifactDir, fmt.Sprintf("policy-%03d.jsonl", i)))
			if err != nil {
				c.logf("%s: job %d timeline: %v", name, i, err)
				return ctx
			}
			sinkMu.Lock()
			sinks = append(sinks, sink)
			sinkMu.Unlock()
			return obs.ContextWithPolicySink(ctx, sink)
		}
	}
	res, err := runner.Run(context.Background(), expers.NewCampaignRegistry(), camp, opts)
	for _, sink := range sinks {
		if cerr := sink.Close(); cerr != nil {
			c.logf("%s: close timeline: %v", name, cerr)
		}
	}
	if res != nil {
		if res.ArtifactDir != "" {
			c.logf("%s: records archived in %s", name, res.ArtifactDir)
		}
		// stderr, not stdout: stdout carries only the tables, which
		// golden files compare byte for byte.
		c.logf("%d cells: %d cached, %d computed, %d failed", len(res.Results), res.Cached, res.Done-res.Cached, res.Failed)
	}
	if err != nil {
		return nil, err
	}
	for _, r := range res.Results {
		if r.Status != runner.StatusDone {
			return nil, fmt.Errorf("campaign %s: job %d (%s) %s: %s", name, r.Index, r.Name, r.Status, r.Error)
		}
	}
	return res.Results, nil
}

func (c *campaigns) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pcs %s: %s\n", c.cmd, fmt.Sprintf(format, args...))
}

// listFlag binds a comma-separated flag to a spec list field (-cores,
// -mechanisms).
type listFlag[T int | string] []T

func (l *listFlag[T]) String() string {
	parts := make([]string, len(*l))
	for i, v := range *l {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func (l *listFlag[T]) Set(s string) error {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v T
		switch p := any(&v).(type) {
		case *int:
			n, err := strconv.Atoi(part)
			if err != nil {
				return fmt.Errorf("bad list element %q", part)
			}
			*p = n
		case *string:
			*p = part
		}
		out = append(out, v)
	}
	*l = out
	return nil
}
