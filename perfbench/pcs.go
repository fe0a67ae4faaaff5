package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/expers"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/runner"
)

// launch is one pcs invocation measured from outside: wall time from
// exec to exit, the kernel's peak-RSS figure, and its stdout. The run
// directories it wrote (pcs -runs) are read back afterwards for the
// per-cell timings, so the measured process runs exactly as a user
// runs it.
type launch struct {
	start  time.Time
	wall   time.Duration
	rssMB  float64
	stdout []byte
	runs   []runDir
}

// runDir is one campaign's artifact directory.
type runDir struct {
	path    string
	created time.Time
	specs   []runner.Spec
	events  []obs.JobEvent
	results [][]byte
	spans   []tracez.Span
}

// manifest mirrors the fields of runner's manifest.json read here.
type manifest struct {
	Created time.Time     `json:"created"`
	Specs   []runner.Spec `json:"specs"`
}

// runPCS executes pcs with args from the checkout root, waits for it,
// and reads every campaign directory under runsRoot.
func runPCS(ctx context.Context, e *env, runsRoot string, args ...string) (*launch, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, e.pcs, args...)
	cmd.Dir = e.root
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	l := &launch{start: time.Now()}
	err := cmd.Run()
	l.wall = time.Since(l.start)
	if err != nil {
		return nil, fmt.Errorf("pcs %v: %w\n%s", args, err, lastBytes(stderr.Bytes(), 2000))
	}
	l.stdout = stdout.Bytes()
	l.rssMB = peakRSSMB(cmd.ProcessState)
	if runsRoot != "" {
		if l.runs, err = readRunDirs(runsRoot); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// readRunDirs loads every campaign directory (anything holding a
// manifest.json) below root, in creation order.
func readRunDirs(root string) ([]runDir, error) {
	var dirs []runDir
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || d.Name() != "manifest.json" {
			return nil
		}
		rd, err := readRunDir(filepath.Dir(path))
		if err != nil {
			return err
		}
		dirs = append(dirs, rd)
		return nil
	})
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].created.Before(dirs[j].created) })
	return dirs, err
}

func readRunDir(dir string) (runDir, error) {
	rd := runDir{path: dir}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return rd, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return rd, fmt.Errorf("%s: manifest: %w", dir, err)
	}
	rd.created, rd.specs = m.Created, m.Specs
	if rd.events, err = obs.ReadJobTimeline(filepath.Join(dir, "timeline.jsonl")); err != nil {
		return rd, err
	}
	if rd.results, err = readLines(filepath.Join(dir, "results.jsonl")); err != nil {
		return rd, err
	}
	spans, err := readLines(filepath.Join(dir, tracez.FileName))
	if err != nil && !os.IsNotExist(err) {
		return rd, err
	}
	for _, line := range spans {
		var sp tracez.Span
		if err := json.Unmarshal(line, &sp); err != nil {
			return rd, fmt.Errorf("%s: span: %w", dir, err)
		}
		rd.spans = append(rd.spans, sp)
	}
	return rd, nil
}

// readLines returns a JSON-lines file's lines, each with its newline.
func readLines(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines [][]byte
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		lines = append(lines, append(append([]byte(nil), sc.Bytes()...), '\n'))
	}
	return lines, sc.Err()
}

// firstJobStart is when the launch's first cell started: the earliest
// campaign's creation stamp plus its first job_started offset.
func (l *launch) firstJobStart() (time.Time, bool) {
	var first time.Time
	for _, rd := range l.runs {
		for _, ev := range rd.events {
			if ev.Type != obs.EventJobStarted {
				continue
			}
			t := rd.created.Add(time.Duration(ev.ElapsedMS * float64(time.Millisecond)))
			if first.IsZero() || t.Before(first) {
				first = t
			}
			break
		}
	}
	return first, !first.IsZero()
}

// cell is one campaign job as its timeline recorded it.
type cell struct {
	kind    string
	status  obs.JobEventType
	cached  bool
	ms      float64 // the job's own wall time
	startMS float64 // offset of job_started from campaign start
	instr   uint64  // instructions simulated (0 when cached)
}

// cells lists every job of every campaign of the launch.
func (l *launch) cells() []cell {
	var out []cell
	for _, rd := range l.runs {
		out = append(out, timelineCells(rd.events, rd.specs)...)
	}
	return out
}

// timelineCells pairs each terminal job event with its start event and
// its spec.
func timelineCells(events []obs.JobEvent, specs []runner.Spec) []cell {
	starts := map[int]float64{}
	var out []cell
	for _, ev := range events {
		switch ev.Type {
		case obs.EventJobStarted:
			starts[ev.Index] = ev.ElapsedMS
		case obs.EventJobDone, obs.EventJobFailed, obs.EventJobCancelled:
			c := cell{kind: ev.Kind, status: ev.Type, cached: ev.Cached,
				ms: ev.DurationMS, startMS: starts[ev.Index]}
			if ev.Type == obs.EventJobDone && !ev.Cached && ev.Index >= 0 && ev.Index < len(specs) {
				c.instr = simulatedInstructions(specs[ev.Index])
			}
			out = append(out, c)
		}
	}
	return out
}

// isSimCell reports whether a computed cell of this kind runs the
// instruction-level simulator. Only those count as cells for the
// cell_ms percentiles: analytical cells take tens of microseconds, so a
// percentile over a mix would sit on the boundary between the two
// populations and read timer noise.
func isSimCell(c cell) bool {
	switch c.kind {
	case "fig4-cell", "cpusim", "leakage", "ablation":
		return c.status == obs.EventJobDone && !c.cached
	}
	return false
}

// simulatedInstructions is the warm-up plus measured instruction count
// a cell simulates, from its parameters with the kinds' own defaults.
func simulatedInstructions(s runner.Spec) uint64 {
	switch s.Kind {
	case "fig4-cell":
		var p expers.Fig4CellParams
		if json.Unmarshal(s.Params, &p) == nil {
			return p.WarmupInstr + p.SimInstr
		}
	case "cpusim":
		var p expers.CPUSimParams
		if json.Unmarshal(s.Params, &p) == nil {
			p.ApplyDefaults()
			return p.WarmupInstr + p.SimInstr
		}
	case "leakage":
		var p expers.LeakageParams
		if json.Unmarshal(s.Params, &p) == nil {
			p.ApplyDefaults()
			return p.SimInstr
		}
	case "ablation":
		var p expers.AblationParams
		if json.Unmarshal(s.Params, &p) == nil {
			p.ApplyDefaults()
			runs := uint64(len(p.Benches) * (1 + len(expers.AblationVariants())))
			return runs * (p.WarmupInstr + p.SimInstr)
		}
	}
	return 0
}

func lastBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}
