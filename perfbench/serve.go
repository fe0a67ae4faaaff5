package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/mechanism"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// serve-mixed: one pcs serve process per session, fresh store and runs
// directory, driven by two closed-loop clients (one connection each,
// matching the two CPUs). Each client submits a spec "campaign"
// document, follows /events to campaign_finished, then reads /results,
// and only then submits its next campaign. Every session replays the
// same seed-derived plan, so sessions are repetitions of one unit of
// work. The fig4-cells are short: /events reports a campaign's end at
// the server's next 15 ms poll, and a cell well inside one poll period
// keeps campaign latency on the service path instead of flipping
// between poll periods with small changes in host speed.
const (
	serveClients    = 2
	serveNominal    = time.Second
	serveFig4Instr  = 50_000
	serveFig4Warmup = 5_000
	serveRepeatEach = 4 // every 4th campaign repeats an earlier one exactly
)

// servePlan is the seed-derived list of campaign documents each client
// submits, in order.
type servePlan struct {
	docs [serveClients][][]byte
	// repeats[c][k] is the earlier step whose document step k repeats
	// byte for byte, or -1.
	repeats [serveClients][]int
}

// newServePlan builds the campaigns. A new campaign holds one new
// fig4-cell of its own, one new analytical cell that the other client
// submits in the same step (duplicate writers of one key), and, after
// the first step, one fig4-cell and one analytical cell repeated from
// earlier steps (store reads): about half the keys are new and half
// repeat. After every three new campaigns a client repeats an earlier
// one whole. The new fig4-cells of a session are the whole Fig. 4 grid
// once, so the seed changes which cells pair up and their fault maps
// and traces, not how much simulation a session does.
func newServePlan(seed uint64, tiny bool) servePlan {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	fig4 := fig4CellPool(seed, tiny)
	ana := analyticalPool()
	rng.Shuffle(len(fig4), func(i, j int) { fig4[i], fig4[j] = fig4[j], fig4[i] })
	rng.Shuffle(len(ana), func(i, j int) { ana[i], ana[j] = ana[j], ana[i] })
	ana = interleaveKinds(ana)
	next := func(pool *[]config.Job) config.Job {
		j := (*pool)[0]
		*pool = (*pool)[1:]
		return j
	}
	newSteps := len(fig4) / serveClients
	if tiny {
		newSteps = 3
	}
	var p servePlan
	var seenFig4, seenAna []config.Job
	for k := 0; k < newSteps*serveRepeatEach/(serveRepeatEach-1); k++ {
		if k%serveRepeatEach == serveRepeatEach-1 {
			for c := 0; c < serveClients; c++ {
				p.docs[c] = append(p.docs[c], p.docs[c][k-2])
				p.repeats[c] = append(p.repeats[c], k-2)
			}
			continue
		}
		shared := next(&ana)
		var newFig4 []config.Job
		for c := 0; c < serveClients; c++ {
			own := next(&fig4)
			newFig4 = append(newFig4, own)
			jobs := []config.Job{own, shared}
			if len(seenFig4) > 0 {
				jobs = append(jobs, seenFig4[rng.IntN(len(seenFig4))], seenAna[rng.IntN(len(seenAna))])
			}
			p.docs[c] = append(p.docs[c], campaignDoc(fmt.Sprintf("serve-%d-%d", c, k), seed*1000+uint64(k*serveClients+c)+1, jobs))
			p.repeats[c] = append(p.repeats[c], -1)
		}
		seenFig4 = append(seenFig4, newFig4...)
		seenAna = append(seenAna, shared)
	}
	return p
}

// warmupDoc is the campaign each session runs before its clients
// start: one short DPCS fig4-cell per system config, so the process's
// lazily built model tables (per cache organisation) exist before any
// timed campaign. A server pays that once in its life, not per
// campaign; left in, it would put each session's first campaigns in
// the latency tail and make the tail a figure of process start-up.
func warmupDoc(seed uint64) []byte {
	var jobs []config.Job
	for _, cfg := range []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()} {
		jobs = append(jobs, job("fig4-cell", "warmup/"+cfg.Name, expers.Fig4CellParams{
			Config: cfg, Mode: "DPCS", Bench: "gcc.s", WarmupInstr: 1_000, SimInstr: 10_000, Seed: seed + 1,
		}))
	}
	return campaignDoc("warmup", seed+1, jobs)
}

func campaignDoc(name string, seed uint64, jobs []config.Job) []byte {
	raw, err := json.Marshal(config.Document{
		Version:  1,
		Name:     name,
		Seed:     seed,
		Workers:  1,
		Campaign: &config.CampaignSpec{Jobs: jobs},
	})
	if err != nil {
		panic(err) // the document types always marshal
	}
	return raw
}

// fig4CellPool is every Fig. 4 grid cell (config x workload x mode) at
// the short serve window, pinned to one seed so repeats hit the store.
func fig4CellPool(seed uint64, tiny bool) []config.Job {
	instr, warmup := uint64(serveFig4Instr), uint64(serveFig4Warmup)
	if tiny {
		instr, warmup = 20_000, 2_000
	}
	var pool []config.Job
	for _, cfg := range []cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()} {
		for _, w := range trace.Names() {
			for _, mode := range []string{"baseline", "SPCS", "DPCS"} {
				pool = append(pool, job("fig4-cell", cfg.Name+"/"+w+"/"+mode, expers.Fig4CellParams{
					Config: cfg, Mode: mode, Bench: w, WarmupInstr: warmup, SimInstr: instr, Seed: seed + 1,
				}))
			}
		}
	}
	return pool
}

// analyticalPool is the analytical cells campaigns draw from: min-VDD
// geometries, VDD-level counts, mechanism min-VDDs and the bit-cell
// comparison.
func analyticalPool() []config.Job {
	var pool []config.Job
	for _, size := range []int{16 << 10, 32 << 10, 64 << 10, 256 << 10, 1 << 20} {
		for _, ways := range []int{1, 2, 4, 8, 16} {
			for _, block := range []int{32, 64, 128} {
				pool = append(pool, job("minvdd", fmt.Sprintf("%dB/%dw/%dB", size, ways, block),
					expers.MinVDDParams{SizeBytes: size, Ways: ways, BlockBytes: block}))
			}
		}
	}
	for levels := 1; levels <= 15; levels++ {
		pool = append(pool, job("vddlevels", fmt.Sprintf("levels=%d", levels), expers.VDDLevelsParams{Levels: levels}))
	}
	for _, m := range mechanism.Names() {
		for _, org := range []string{"l1a", "l2a", "l1b", "l2b"} {
			pool = append(pool, job("mechminvdd", m+"/"+org, expers.MechMinVDDParams{Mechanism: m, Org: org}))
		}
	}
	return append(pool, job("cells", "cells", expers.CellsParams{}))
}

// interleaveKinds reorders jobs round-robin by kind, keeping each
// kind's order, so the first campaigns already cover every kind.
func interleaveKinds(jobs []config.Job) []config.Job {
	var kinds []string
	byKind := map[string][]config.Job{}
	for _, j := range jobs {
		if byKind[j.Kind] == nil {
			kinds = append(kinds, j.Kind)
		}
		byKind[j.Kind] = append(byKind[j.Kind], j)
	}
	sort.Strings(kinds)
	out := make([]config.Job, 0, len(jobs))
	for len(out) < len(jobs) {
		for _, k := range kinds {
			if q := byKind[k]; len(q) > 0 {
				out = append(out, q[0])
				byKind[k] = q[1:]
			}
		}
	}
	return out
}

func job(kind, name string, params any) config.Job {
	raw, err := json.Marshal(params)
	if err != nil {
		panic(err) // parameter structs always marshal
	}
	return config.Job{Kind: kind, Name: name, Params: raw}
}

// campaignRec is one campaign as a client saw it.
type campaignRec struct {
	client, step int
	submitMS     float64
	resultsMS    float64
	totalMS      float64 // submit until the last result line
	results      []byte
	events       []obs.JobEvent
	end          time.Time
}

// session is one pcs serve process's life under the two clients.
type session struct {
	start     time.Time
	setup     time.Duration
	wall      time.Duration // launch until the last result
	rssMB     float64
	camps     []campaignRec
	non2xx    int
	requests  int
	storeSize float64  // resultstore_bytes at the end
	runs      []runDir // read back when traced
}

// runSession launches pcs serve, drives the plan through it and stops
// it with SIGTERM, waiting for the drain.
func runSession(ctx context.Context, e *env, plan servePlan, idx int, traced bool) (*session, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("serve-%d", idx))
	runs, cache := filepath.Join(dir, "runs"), filepath.Join(dir, "cache")
	defer os.RemoveAll(dir)
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.pcs, "serve", "-addr", addr, "-runs", runs, "-cache", cache,
		"-workers", "1", "-trace="+strconv.FormatBool(traced), "-grace", "5s")
	cmd.Dir = e.root
	var stderr tailBuffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pcs serve: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			return err
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
			return errors.New("pcs serve did not drain within 15s; killed")
		case <-ctx.Done():
			_ = cmd.Process.Kill()
			<-exited
			return ctx.Err()
		}
	}
	defer stop()

	base := "http://" + addr
	s := &session{start: start}
	if s.setup, err = waitReady(ctx, base, start, exited); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}

	warm := &client{base: base, http: &http.Client{}}
	_, err = warm.campaign(ctx, warmupDoc(e.seed))
	warm.http.CloseIdleConnections()
	s.requests, s.non2xx = warm.requests, warm.non2xx
	if err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w\n%s", err, stderr.String())
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{base: base, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
			defer cl.http.CloseIdleConnections()
			for k, doc := range plan.docs[c] {
				rec, err := cl.campaign(ctx, doc)
				mu.Lock()
				s.requests += cl.requests
				s.non2xx += cl.non2xx
				cl.requests, cl.non2xx = 0, 0
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d campaign %d: %w", c, k, err)
					}
					mu.Unlock()
					return
				}
				rec.client, rec.step = c, k
				s.camps = append(s.camps, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("%w\n%s", firstErr, stderr.String())
	}
	var last time.Time
	for _, r := range s.camps {
		if r.end.After(last) {
			last = r.end
		}
	}
	s.wall = last.Sub(start)
	if err := s.scrapeStore(ctx, base); err != nil {
		return nil, err
	}
	if err := stop(); err != nil {
		return nil, fmt.Errorf("pcs serve exit: %w\n%s", err, stderr.String())
	}
	s.rssMB = peakRSSMB(cmd.ProcessState)
	if traced {
		if s.runs, err = readRunDirs(runs); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// waitReady polls /readyz every millisecond until it answers 200.
func waitReady(ctx context.Context, base string, start time.Time, exited <-chan error) (time.Duration, error) {
	cl := &http.Client{Timeout: time.Second}
	defer cl.CloseIdleConnections()
	for {
		resp, err := cl.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		select {
		case err := <-exited:
			return 0, fmt.Errorf("pcs serve exited before ready: %v", err)
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 20*time.Second {
			return 0, errors.New("pcs serve not ready after 20s")
		}
	}
}

// scrapeStore reads the result store's size from /metrics.
func (s *session) scrapeStore(ctx context.Context, base string) error {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		if strings.HasSuffix(f[0], "resultstore_bytes") {
			s.storeSize = v
		}
	}
	return sc.Err()
}

// client is one closed-loop campaign submitter on its own connection.
type client struct {
	base     string
	http     *http.Client
	requests int
	non2xx   int
}

// campaign submits doc, follows its events to campaign_finished and
// reads its results.
func (c *client) campaign(ctx context.Context, doc []byte) (campaignRec, error) {
	var rec campaignRec
	t0 := time.Now()
	body, err := c.do(ctx, http.MethodPost, "/campaigns", doc)
	if err != nil {
		return rec, err
	}
	rec.submitMS = ms(time.Since(t0))
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return rec, fmt.Errorf("submit response %q: %v", body, err)
	}
	events, err := c.do(ctx, http.MethodGet, "/campaigns/"+sub.ID+"/events", nil)
	if err != nil {
		return rec, err
	}
	if rec.events, err = obs.ReadJobEvents(bytes.NewReader(events)); err != nil {
		return rec, err
	}
	if n := len(rec.events); n == 0 || rec.events[n-1].Type != obs.EventCampaignFinished {
		return rec, errors.New("event stream ended before campaign_finished")
	}
	t1 := time.Now()
	if rec.results, err = c.do(ctx, http.MethodGet, "/campaigns/"+sub.ID+"/results", nil); err != nil {
		return rec, err
	}
	rec.end = time.Now()
	rec.resultsMS = ms(rec.end.Sub(t1))
	rec.totalMS = ms(rec.end.Sub(t0))
	return rec, nil
}

func (c *client) do(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	c.requests++
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.non2xx++
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

func runServe(ctx context.Context, e *env) (*measure, error) {
	plan := newServePlan(e.seed, e.tiny)
	m := &measure{}
	var first *session
	var tally serveTally
	for i := 0; i < e.reps(serveNominal); i++ {
		s, err := runSession(ctx, e, plan, i, false)
		if err != nil {
			return nil, err
		}
		m.addSession(s)
		if first == nil {
			first = s
			checkServeInProcess(ctx, &m.checks, plan, s)
		}
		tally.add(plan, first, s)
	}
	tally.check(&m.checks)
	return m, nil
}

// addSession folds one session into the samples.
func (m *measure) addSession(s *session) {
	m.setupS = append(m.setupS, s.setup.Seconds())
	m.wallS = append(m.wallS, s.wall.Seconds())
	m.rssMB = append(m.rssMB, s.rssMB)
	m.attempted += s.requests
	m.failed += s.non2xx
	var instr uint64
	for _, r := range s.camps {
		m.campaignMS = append(m.campaignMS, r.totalMS)
		for _, c := range timelineCells(r.events, nil) {
			m.attempted++
			if c.status != obs.EventJobDone {
				m.failed++
			}
			if isSimCell(c) {
				m.cellMS = append(m.cellMS, c.ms)
				instr += serveCellInstr(c)
			}
		}
	}
	m.minstrPerS = append(m.minstrPerS, float64(instr)/1e6/s.wall.Seconds())
}

// serveCellInstr is a computed serve-mixed fig4-cell's instruction
// count; the plan's fig4-cells all share one window.
func serveCellInstr(c cell) uint64 {
	if c.kind != "fig4-cell" {
		return 0
	}
	return serveFig4Instr + serveFig4Warmup
}

// serveTally counts, over a run's sessions, campaigns that finished
// done, repeated campaigns that returned their first submission's
// bytes, and campaigns that returned the same bytes as in session 0.
type serveTally struct {
	camps, done        int
	repeats, sameBytes int
	replays, replayed  int
}

func (t *serveTally) add(plan servePlan, first, s *session) {
	byStep := map[[2]int][]byte{}
	for _, r := range s.camps {
		byStep[[2]int{r.client, r.step}] = r.results
		t.camps++
		if r.events[len(r.events)-1].State == "done" {
			t.done++
		}
	}
	for c := range plan.repeats {
		for k, of := range plan.repeats[c] {
			if of < 0 {
				continue
			}
			t.repeats++
			a := byStep[[2]int{c, k}]
			if len(a) > 0 && bytes.Equal(a, byStep[[2]int{c, of}]) {
				t.sameBytes++
			}
		}
	}
	if s == first {
		return
	}
	for _, r := range first.camps {
		t.replays++
		if bytes.Equal(byStep[[2]int{r.client, r.step}], r.results) {
			t.replayed++
		}
	}
}

func (t *serveTally) check(cs *checks) {
	cs.add("serve.done", t.done == t.camps, "%d of %d campaigns finished done", t.done, t.camps)
	cs.add("serve.repeats", t.sameBytes == t.repeats, "%d of %d repeated campaigns byte-identical to their first submission", t.sameBytes, t.repeats)
	cs.add("serve.sessions", t.replayed == t.replays, "%d of %d campaigns byte-identical to the first session's", t.replayed, t.replays)
}

// checkServeInProcess runs each distinct campaign of the plan through
// runner.Run in this process, with no store, and compares its results
// with what the server returned. It runs after the session, untimed.
func checkServeInProcess(ctx context.Context, cs *checks, plan servePlan, s *session) {
	got := map[[2]int][]byte{}
	for _, r := range s.camps {
		got[[2]int{r.client, r.step}] = r.results
	}
	reg := expers.NewCampaignRegistry()
	distinct, match := 0, 0
	var firstDiff string
	for c := range plan.docs {
		for k, doc := range plan.docs[c] {
			if plan.repeats[c][k] >= 0 {
				continue
			}
			distinct++
			camp, workers, err := config.ExpandBytes(doc)
			if err != nil {
				firstDiff = fmt.Sprintf("expand %s: %v", docName(doc), err)
				continue
			}
			res, err := runner.Run(ctx, reg, camp, runner.Options{Workers: workers})
			if err != nil {
				firstDiff = fmt.Sprintf("run %s: %v", docName(doc), err)
				continue
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := range res.Results {
				_ = enc.Encode(&res.Results[i]) // writes to a bytes.Buffer
			}
			if bytes.Equal(buf.Bytes(), got[[2]int{c, k}]) {
				match++
			} else if firstDiff == "" {
				firstDiff = "first mismatch: " + docName(doc)
			}
		}
	}
	cs.add("serve.in_process", match == distinct, "%d of %d campaigns byte-identical to runner.Run in process %s", match, distinct, firstDiff)
}

func docName(doc []byte) string {
	var d struct {
		Name string `json:"name"`
	}
	_ = json.Unmarshal(doc, &d) // only labels a message
	return d.Name
}

// freeAddr picks a free loopback port for pcs serve.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailBuffer keeps the last 16 KiB written to it (a child's stderr,
// for error messages). Safe for the exec copier goroutine.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 16<<10 {
		t.buf = append([]byte(nil), t.buf[len(t.buf)-16<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
