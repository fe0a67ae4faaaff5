package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpusim"
	"repro/internal/device"
	"repro/internal/expers"
	"repro/internal/faultmodel"
	"repro/internal/ledger"
	"repro/internal/resultstore"
	"repro/internal/runner"
	"repro/internal/sram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The direct probes call each layer's public functions from here, on
// inputs taken from the workload: its traces and system configs, and
// the cell outputs its traced run produced.

// probeInput is what the probes run on.
type probeInput struct {
	systems []probeSystem
	instr   int // instructions generated and replayed per system
	results []storedCell
	runs    []runDir // the traced run's campaigns, for the ledger probe
	// localHTTP measures the HTTP layer with an in-process
	// runner.Server; serve-mixed measures its real pcs serve instead.
	localHTTP bool
}

type probeSystem struct {
	cfg cpusim.SystemConfig
	w   trace.Workload
}

// storedCell is one cell output under its content-addressed key.
type storedCell struct {
	key  string
	data []byte
}

func probeInstr(e *env) int {
	if e.tiny {
		return 20_000
	}
	return 250_000
}

func systemsFor(cfgs []cpusim.SystemConfig, names []string) []probeSystem {
	var out []probeSystem
	for _, cfg := range cfgs {
		for _, n := range names {
			if w, ok := trace.ByName(n); ok {
				out = append(out, probeSystem{cfg, w})
			}
		}
	}
	return out
}

func fig4ProbeInput(e *env) probeInput {
	return probeInput{
		systems:   systemsFor([]cpusim.SystemConfig{cpusim.ConfigA(), cpusim.ConfigB()}, trace.Names()),
		instr:     probeInstr(e),
		localHTTP: true,
	}
}

// sweepProbeInput uses the sweep's simulated workloads: bzip2.s (the
// DPCS sensitivity study) and the ablation pair, on Config A.
func sweepProbeInput(e *env) probeInput {
	return probeInput{
		systems:   systemsFor([]cpusim.SystemConfig{cpusim.ConfigA()}, []string{"bzip2.s", "hmmer.s", "sjeng.s"}),
		instr:     probeInstr(e),
		localHTTP: true,
	}
}

// serveProbeInput uses every config and workload of the Fig. 4 grid,
// whose cells each serve-mixed session submits once, and the traced
// session's cell outputs.
func serveProbeInput(e *env, runs []runDir) probeInput {
	in := fig4ProbeInput(e)
	in.localHTTP = false
	in.results, in.runs = resultOutputs(runs), runs
	return in
}

// resultOutputs keys every cell output of the runs as the store would.
func resultOutputs(runs []runDir) []storedCell {
	var out []storedCell
	for _, rd := range runs {
		for _, line := range rd.results {
			var r struct {
				Index  int             `json:"index"`
				Seed   uint64          `json:"seed"`
				Output json.RawMessage `json:"output"`
			}
			if json.Unmarshal(line, &r) != nil || r.Index >= len(rd.specs) || len(r.Output) == 0 {
				continue
			}
			s := rd.specs[r.Index]
			key, err := resultstore.Key(s.Kind, s.Params, r.Seed, "perfbench")
			if err != nil {
				continue
			}
			out = append(out, storedCell{key: key, data: r.Output})
		}
	}
	return out
}

// directProbes runs every probe and records its figures.
func (lr *layerRun) directProbes(ctx context.Context, e *env, in probeInput) error {
	var genNS, loopNS, tickNS, transNS, popNS float64
	var instrs, accesses, ticks, transitions, writebacks, pops float64
	var miss [3][2]float64 // L1I, L1D, L2: misses, accesses
	buf := make([]trace.Instr, in.instr)
	for _, ps := range in.systems {
		gen, err := trace.New(ps.w, e.seed)
		if err != nil {
			return err
		}
		bg := trace.AsBlock(gen)
		t0 := time.Now()
		for i := 0; i < len(buf); i += trace.BlockSize {
			bg.NextBlock(buf[i:min(i+trace.BlockSize, len(buf))])
		}
		genNS += float64(time.Since(t0))
		instrs += float64(len(buf))

		sys, err := cpusim.NewSystem(ps.cfg, core.DPCS, e.seed)
		if err != nil {
			return err
		}
		r := newReplayer(sys, ps.cfg)
		// Replay in chunks; after each, take the L2 down to its lowest
		// level and back, so every down transition meets fresh dirty
		// lines to write back.
		const chunks = 4
		for c := 0; c < chunks; c++ {
			r.run(buf[c*len(buf)/chunks : (c+1)*len(buf)/chunks])
			for _, lvl := range []int{1, r.l2.Levels.N()} {
				t := time.Now()
				tr := r.l2.Transition(lvl, r.cycles, r.toMem)
				transNS += float64(time.Since(t))
				transitions++
				writebacks += float64(tr.Writebacks)
			}
		}
		loopNS += float64(r.loop - r.tick)
		tickNS += float64(r.tick)
		accesses += float64(r.accesses)
		ticks += float64(r.ticks)
		for i, ct := range []*core.Controller{r.l1i, r.l1d, r.l2} {
			st := ct.Cache.Stats()
			miss[i][0] += float64(st.Misses)
			miss[i][1] += float64(st.Accesses)
		}

		d, err := populateL2(ps.cfg, e.seed)
		if err != nil {
			return err
		}
		popNS += float64(d)
		pops++
	}
	v := lr.vals
	v["trace.gen_ns_per_instr"] = ratio(genNS, instrs)
	v["trace.instrs"] = instrs
	v["cache.access_ns"] = ratio(loopNS, accesses)
	v["cache.accesses"] = accesses
	v["cache.l1i_miss_ratio"] = ratio(miss[0][0], miss[0][1])
	v["cache.l1d_miss_ratio"] = ratio(miss[1][0], miss[1][1])
	v["cache.l2_miss_ratio"] = ratio(miss[2][0], miss[2][1])
	v["core.tick_ns"] = ratio(tickNS, ticks)
	v["core.ticks"] = ticks
	v["core.transition_us"] = ratio(transNS, transitions) / 1e3
	v["core.transitions"] = transitions
	v["core.transition_writebacks"] = writebacks
	v["core.populate_ms"] = ratio(popNS, pops) / 1e6

	var err error
	if v["runner.overhead_us_per_cell"], err = runnerOverhead(ctx, e); err != nil {
		return err
	}
	if err := lr.storeProbes(e, in.results); err != nil {
		return err
	}
	if err := lr.ledgerProbe(e, in.runs); err != nil {
		return err
	}
	if in.localHTTP {
		return lr.httpProbes(ctx, e)
	}
	return nil
}

// replayer drives a DPCS system's controllers and policies through
// pre-generated instructions with cpusim's access sequence (L1I fetch,
// then the L1D access, L2 on a miss, writebacks into L2), using only
// the cache and core packages' public functions. Policy ticks are
// timed one by one, so cache time is the loop time minus tick time.
type replayer struct {
	l1i, l1d, l2    *core.Controller
	p1i, p1d, p2    *core.DPCSPolicy
	memCycles       uint64
	cycles          uint64
	accesses, ticks uint64
	loop, tick      time.Duration
	toL2, toMem     func(addr uint64)
}

func newReplayer(sys *cpusim.System, cfg cpusim.SystemConfig) *replayer {
	r := &replayer{
		l1i: sys.L1IController(), l1d: sys.L1DController(), l2: sys.L2Controller(),
		p1i: sys.L1IPolicy(), p1d: sys.L1DPolicy(), p2: sys.L2Policy(),
		memCycles: cfg.MemCycles,
	}
	r.toMem = func(uint64) {}
	r.toL2 = func(addr uint64) {
		r.accesses++
		res := r.l2.Cache.Access(addr, true)
		r.l2.OnAccess(true)
		if res.Fill && !res.Hit {
			r.l2.OnFill()
		}
	}
	r.p1i.Start(r.toL2)
	r.p1d.Start(r.toL2)
	r.p2.Start(r.toMem)
	for _, p := range []*core.DPCSPolicy{r.p1i, r.p1d, r.p2} {
		p.Arm(0)
	}
	return r
}

func (r *replayer) run(instrs []trace.Instr) {
	t0 := time.Now()
	for i := range instrs {
		ins := &instrs[i]
		r.cycles++
		r.access(r.l1i, r.p1i, ins.PC, false)
		if ins.HasMem {
			r.access(r.l1d, r.p1d, ins.Addr, ins.Write)
		}
	}
	r.loop += time.Since(t0)
}

func (r *replayer) access(ct *core.Controller, p *core.DPCSPolicy, addr uint64, write bool) {
	r.accesses++
	if ct.Cache.FastHit(addr, write) {
		ct.OnAccess(write)
	} else {
		res := ct.Cache.AccessFull(addr, write)
		ct.OnAccess(write)
		if !res.Hit {
			ct.NoteMiss(addr &^ uint64(ct.Cache.BlockBytes()-1))
			if res.Fill {
				ct.OnFill()
			}
			if res.Writeback {
				r.toL2(res.WritebackAddr)
			}
			r.accessL2(addr, write)
		}
	}
	r.maybeTick(p, r.toL2)
}

func (r *replayer) accessL2(addr uint64, write bool) {
	r.accesses++
	res := r.l2.Cache.Access(addr, write)
	r.l2.OnAccess(write)
	if !res.Hit {
		r.l2.NoteMiss(addr &^ uint64(r.l2.Cache.BlockBytes()-1))
		r.cycles += r.memCycles
		if res.Fill {
			r.l2.OnFill()
		}
	}
	r.maybeTick(r.p2, r.toMem)
}

func (r *replayer) maybeTick(p *core.DPCSPolicy, sink func(uint64)) {
	if !p.Due() {
		return
	}
	t := time.Now()
	r.cycles += p.Tick(r.cycles, sink)
	r.tick += time.Since(t)
	r.ticks++
}

// populateL2 times one Monte Carlo fault-map population of the config's
// L2 over its three-level voltage plan.
func populateL2(cfg cpusim.SystemConfig, seed uint64) (time.Duration, error) {
	org := cfg.L2.Org
	geom := faultmodel.Geometry{Sets: org.Sets(), Ways: org.Assoc, BlockBits: org.BlockBits()}
	fm, err := faultmodel.New(geom, sram.NewWangCalhounBER())
	if err != nil {
		return 0, err
	}
	tech := device.Tech45SOI()
	plan, err := core.SelectLevels(fm, tech.VDDNom, tech.VDDMin, faultmodel.VDD1CapacityFloor(org.Assoc))
	if err != nil {
		return 0, err
	}
	t := time.Now()
	core.PopulateMapMonteCarlo(stats.NewRNG(seed), plan, org.Sets()*org.Assoc)
	return time.Since(t), nil
}

// runnerOverhead is the runner's cost per cell: a campaign of no-op
// cells through runner.Run at the default pool size, divided by the
// cell count.
func runnerOverhead(ctx context.Context, e *env) (float64, error) {
	reg := runner.NewRegistry()
	if err := reg.Register("noop", func(context.Context, uint64, json.RawMessage) (any, error) { return nil, nil }); err != nil {
		return 0, err
	}
	n := 20_000
	if e.tiny {
		n = 200
	}
	jobs := make([]runner.Spec, n)
	for i := range jobs {
		jobs[i] = runner.Spec{Kind: "noop"}
	}
	t := time.Now()
	res, err := runner.Run(ctx, reg, runner.Campaign{Name: "noop", Seed: e.seed, Jobs: jobs}, runner.Options{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return 0, err
	}
	if res.Done != n {
		return 0, fmt.Errorf("no-op campaign: %d of %d cells done", res.Done, n)
	}
	return float64(time.Since(t)) / float64(n) / 1e3, nil
}

// storeProbes times resultstore Put on fresh keys, Get, and Put over
// existing entries, on the workload's own cell outputs, in a store
// directory of this run's.
func (lr *layerRun) storeProbes(e *env, cells []storedCell) error {
	if len(cells) == 0 {
		return fmt.Errorf("store probes: the traced run produced no cell outputs")
	}
	if len(cells) > 64 {
		cells = cells[:64]
	}
	st, err := resultstore.Open(filepath.Join(e.work, "probe-store"))
	if err != nil {
		return err
	}
	var put, get, again time.Duration
	for _, c := range cells {
		t := time.Now()
		if err := st.Put(c.key, c.data); err != nil {
			return err
		}
		put += time.Since(t)
	}
	for _, c := range cells {
		t := time.Now()
		data, ok, err := st.Get(c.key)
		get += time.Since(t)
		if err != nil || !ok || !bytes.Equal(data, c.data) {
			lr.checks.add("resultstore.roundtrip", false, "Get(%s) = ok %v, err %v", short(c.key), ok, err)
			return nil
		}
	}
	for _, c := range cells {
		t := time.Now()
		if err := st.Put(c.key, c.data); err != nil {
			return err
		}
		again += time.Since(t)
	}
	n := float64(len(cells))
	lr.vals["resultstore.put_us"] = float64(put) / n / 1e3
	lr.vals["resultstore.get_us"] = float64(get) / n / 1e3
	lr.vals["resultstore.put_existing_us"] = float64(again) / n / 1e3
	return nil
}

// ledgerProbe rewrites each traced campaign's ledger the way the
// runner does at campaign end (manifest, one entry per result line,
// summary; buffered, then flushed and closed) and times it per entry.
func (lr *layerRun) ledgerProbe(e *env, runs []runDir) error {
	var d time.Duration
	entries := 0
	for i, rd := range runs {
		f, err := os.Create(filepath.Join(e.work, fmt.Sprintf("probe-ledger-%d.jsonl", i)))
		if err != nil {
			return err
		}
		t := time.Now()
		w := bufio.NewWriter(f)
		lw := ledger.NewWriter(w)
		err = lw.Append(ledger.TypeManifest, ledger.Manifest{Campaign: filepath.Base(rd.path), Jobs: len(rd.specs)})
		for j, line := range rd.results {
			if err == nil {
				err = lw.Append(ledger.TypeResult, ledger.Result{Index: j, Digest: ledger.LineDigest(line)})
			}
		}
		if err == nil {
			err = lw.Append(ledger.TypeSummary, ledger.Summary{Done: len(rd.results)})
		}
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		d += time.Since(t)
		if err != nil {
			return fmt.Errorf("ledger probe: %w", err)
		}
		entries += len(rd.results) + 2
	}
	lr.vals["ledger.append_us"] = ratio(float64(d), float64(entries)) / 1e3
	return nil
}

// httpProbes measures submit and results round trips against an
// in-process runner.Server on loopback, with one-cell analytical
// campaigns, for the workloads that do not serve HTTP themselves.
func (lr *layerRun) httpProbes(ctx context.Context, e *env) error {
	srv := runner.NewServer(expers.NewCampaignRegistry(), runner.ServerOptions{SpecExpander: config.ExpandBytes})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &client{base: ts.URL, http: ts.Client()}
	var submit, results []float64
	n := 40
	if e.tiny {
		n = 4
	}
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`{"version":1,"name":"probe-%d","campaign":{"jobs":[{"kind":"vddlevels","params":{"levels":%d}}]}}`, i, 1+i%15)
		rec, err := cl.campaign(ctx, []byte(doc))
		if err != nil {
			return fmt.Errorf("in-process HTTP probe: %w", err)
		}
		submit = append(submit, rec.submitMS)
		results = append(results, rec.resultsMS)
	}
	lr.vals["http.submit_ms"] = median(submit)
	lr.vals["http.results_ms"] = median(results)
	lr.vals["http.non2xx"] = float64(cl.non2xx)
	lr.attempted += cl.requests
	lr.failed += cl.non2xx
	return nil
}
