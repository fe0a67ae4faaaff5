package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/expers"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/version"
)

// campaigns is the campaign plumbing pcs sim, sweep and multicore
// share. The commands bind their -workers, -runs, -trace, -cache,
// -progress and (sweep only) -timeline flags to its fields; it then
// gives every campaign the same runner options and run directory,
// fails on the first failed cell, and sums the cells for the closing
// "N cells: ..." line on stderr.
type campaigns struct {
	cmd      string // subcommand name, prefixing stderr lines
	workers  int
	runsRoot string
	trace    bool
	cacheDir string
	progress bool
	// timeline records each job's DPCS policy events in
	// policy-<index>.jsonl next to the campaign records.
	timeline bool

	cache                           runner.ResultCache
	cells, cached, computed, failed int
}

// open checks the flag combinations and opens the result cache; call
// it once, before the first campaign.
func (c *campaigns) open() error {
	if c.trace && c.runsRoot == "" {
		return fmt.Errorf("-trace needs -runs (spans.jsonl lives next to the campaign records)")
	}
	if c.timeline && c.runsRoot == "" {
		return fmt.Errorf("-timeline needs -runs (per-job timelines live next to the campaign records)")
	}
	var err error
	c.cache, err = openCache(c.cacheDir)
	return err
}

// run executes one campaign, archived under <runs>/<name>/<timestamp>
// with -runs. exec runs the campaign with the options run hands it and
// returns the runner's result, which run accounts even when exec also
// reports an error. A failed cell fails the command.
func (c *campaigns) run(name string, exec func(context.Context, runner.Options) (*runner.CampaignResult, error)) ([]runner.JobResult, error) {
	opts := runner.Options{Workers: c.workers, Cache: c.cache, CodeVersion: version.String()}
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
	res, err := exec(context.Background(), opts)
	for _, sink := range sinks {
		if cerr := sink.Close(); cerr != nil {
			c.logf("%s: close timeline: %v", name, cerr)
		}
	}
	if res != nil {
		c.cells += len(res.Results)
		c.cached += res.Cached
		c.computed += res.Done - res.Cached
		c.failed += res.Failed
		if res.ArtifactDir != "" {
			c.logf("%s: records archived in %s", name, res.ArtifactDir)
		}
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

// runCampaign runs camp through the standard kind registry, archived
// under <runs>/<name>.
func (c *campaigns) runCampaign(name string, camp runner.Campaign) ([]runner.JobResult, error) {
	return c.run(name, func(ctx context.Context, opts runner.Options) (*runner.CampaignResult, error) {
		return runner.Run(ctx, expers.NewCampaignRegistry(), camp, opts)
	})
}

// summary prints the cell accounting of every campaign run so far. It
// goes to stderr: stdout carries only the tables, which golden files
// compare byte for byte.
func (c *campaigns) summary() {
	c.logf("%d cells: %d cached, %d computed, %d failed", c.cells, c.cached, c.computed, c.failed)
}

func (c *campaigns) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pcs %s: %s\n", c.cmd, fmt.Sprintf(format, args...))
}
