// Package cpusim is the architectural simulator substrate that stands in
// for the paper's gem5 setup (see DESIGN.md §2): a trace-driven core with
// unit base CPI, split L1 instruction/data caches, a unified L2 and a
// fixed-latency DRAM. Loads and fetches stall the core on misses
// (L1 miss adds the L2 hit latency; L2 miss adds the memory latency);
// writebacks consume bandwidth-free energy only. Each cache runs under a
// core.Controller (baseline / SPCS / DPCS), and DPCS policies tick per
// cache with their own intervals, exactly as Table 2 configures.
//
// # Concurrency contract
//
// A System and everything it owns (controllers, policies, fault maps,
// the RNG used during construction) is confined to one goroutine: build
// one System per concurrent simulation. The only package-level state is
// the statics memo table (see arena.go), which is immutable after first
// compute and safe for lock-free concurrent reads, so any number of
// Run/RunContext calls may proceed in parallel as long as each uses its
// own System and its own trace.Generator. This is the contract
// internal/runner relies on when it fans campaign jobs out across
// workers. An Arena is likewise confined to one goroutine, and a
// System built on it lives only until the next NewSystemArena call on
// that arena (DESIGN.md §13).
package cpusim

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/faultmodel"
	"repro/internal/obs"
	"repro/internal/obs/tracez"
	"repro/internal/sram"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CacheSpec describes one cache level of a system configuration.
type CacheSpec struct {
	Org       cacti.Org
	HitCycles uint64
	// DPCS policy knobs for this cache.
	Interval uint64
	// VoltagePenaltyCycles is the supply-settling part of the
	// transition penalty (the "+20"/"+40" of Table 2).
	VoltagePenaltyCycles uint64
}

// SystemConfig is one of the paper's Table 2 system configurations.
type SystemConfig struct {
	Name     string
	ClockHz  float64
	L1I, L1D CacheSpec
	L2       CacheSpec
	// MemCycles is the DRAM access latency in cycles.
	MemCycles uint64
	// MLPOverlap models out-of-order latency hiding: the fraction of
	// each miss's stall the core overlaps with useful work (0 = fully
	// blocking in-order, the default; the paper's detailed OoO Alpha
	// would sit around 0.3-0.6 depending on workload ILP). Only demand
	// stalls shrink; energy-relevant event counts are unchanged.
	MLPOverlap float64
	// SuperInterval, LowThreshold, HighThreshold parameterise DPCS.
	SuperInterval               int
	LowThreshold, HighThreshold float64
	// Ablate disables DPCS damping refinements for ablation studies.
	Ablate core.AblationFlags
}

// ConfigA returns the paper's Config A: 2 GHz, 64 KB 4-way split L1
// (2-cycle), 2 MB 8-way L2 (4-cycle).
func ConfigA() SystemConfig {
	return SystemConfig{
		Name:    "A",
		ClockHz: 2e9,
		L1I: CacheSpec{
			Org:       cacti.Org{Name: "L1I-A", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40},
			HitCycles: 2, Interval: 100_000, VoltagePenaltyCycles: 20,
		},
		L1D: CacheSpec{
			Org:       cacti.Org{Name: "L1D-A", SizeBytes: 64 << 10, Assoc: 4, BlockBytes: 64, AddrBits: 40},
			HitCycles: 2, Interval: 100_000, VoltagePenaltyCycles: 20,
		},
		L2: CacheSpec{
			Org:       cacti.Org{Name: "L2-A", SizeBytes: 2 << 20, Assoc: 8, BlockBytes: 64, AddrBits: 40, SerialTagData: true},
			HitCycles: 4, Interval: 10_000, VoltagePenaltyCycles: 20,
		},
		MemCycles:     200,
		SuperInterval: 10,
		LowThreshold:  0.02,
		HighThreshold: 0.03,
	}
}

// ConfigB returns the paper's Config B: 3 GHz, 256 KB 8-way split L1
// (3-cycle), 8 MB 16-way L2 (8-cycle) — the over-provisioned system used
// to probe DPCS's advantage on larger caches.
func ConfigB() SystemConfig {
	return SystemConfig{
		Name:    "B",
		ClockHz: 3e9,
		L1I: CacheSpec{
			Org:       cacti.Org{Name: "L1I-B", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64, AddrBits: 40},
			HitCycles: 3, Interval: 100_000, VoltagePenaltyCycles: 40,
		},
		L1D: CacheSpec{
			Org:       cacti.Org{Name: "L1D-B", SizeBytes: 256 << 10, Assoc: 8, BlockBytes: 64, AddrBits: 40},
			HitCycles: 3, Interval: 100_000, VoltagePenaltyCycles: 40,
		},
		L2: CacheSpec{
			Org:       cacti.Org{Name: "L2-B", SizeBytes: 8 << 20, Assoc: 16, BlockBytes: 64, AddrBits: 40, SerialTagData: true},
			HitCycles: 8, Interval: 10_000, VoltagePenaltyCycles: 40,
		},
		MemCycles:     300,
		SuperInterval: 10,
		LowThreshold:  0.03,
		HighThreshold: 0.045,
	}
}

// ConfigByName resolves "A" or "B" (case-insensitive) to the paper's
// system configuration of that name.
func ConfigByName(name string) (SystemConfig, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "A":
		return ConfigA(), nil
	case "B":
		return ConfigB(), nil
	}
	return SystemConfig{}, fmt.Errorf("unknown system config %q (want A or B)", name)
}

// ConfigsByName resolves a grid's configuration selector: "A", "B" or
// "both" (A then B), case-insensitive.
func ConfigsByName(sel string) ([]SystemConfig, error) {
	if strings.EqualFold(strings.TrimSpace(sel), "both") {
		return []SystemConfig{ConfigA(), ConfigB()}, nil
	}
	cfg, err := ConfigByName(sel)
	if err != nil {
		return nil, fmt.Errorf("unknown system config %q (want A, B or both)", sel)
	}
	return []SystemConfig{cfg}, nil
}

// RunOptions control one simulation.
type RunOptions struct {
	// WarmupInstr instructions run before measurement starts (the
	// paper's fast-forward; scaled down like everything else).
	WarmupInstr uint64
	// SimInstr instructions are measured.
	SimInstr uint64
	// Seed drives fault-map placement and the workload generator.
	Seed uint64
	// Sink, when non-nil, receives typed policy telemetry from every
	// cache level: one event per DPCS interval decision plus one
	// DecisionTransition event per controller voltage transition
	// (including the initial cycle-0 transitions to the SPCS voltage).
	Sink obs.PolicySink
	// Arena, when non-nil, supplies the reusable per-worker simulation
	// state (see Arena); the run's output is byte-identical with or
	// without it.
	Arena *Arena `json:"-"`
}

// DefaultRunOptions returns the scaled-down defaults used by the test
// suite; the cmd/pcs-sim harness uses larger values.
func DefaultRunOptions() RunOptions {
	return RunOptions{WarmupInstr: 1_000_000, SimInstr: 2_000_000, Seed: 1}
}

// CacheResult reports one cache's behaviour over the measured window.
type CacheResult struct {
	Name        string            `json:"name"`
	Stats       cache.Stats       `json:"stats"`
	Energy      core.EnergyReport `json:"energy"`
	AvgPowerW   float64           `json:"avg_power_w"`
	Transitions int               `json:"transitions"`
	// LevelVolts and TimeAtLevelCycles describe where the controller
	// spent its time (index 0 = lowest level).
	LevelVolts        []float64 `json:"level_volts"`
	TimeAtLevelCycles []uint64  `json:"time_at_level_cycles"`
}

// Result is the outcome of one simulation run, and the output document
// of the "cpusim" and "fig4-cell" campaign kinds (internal/expers).
type Result struct {
	Workload string    `json:"workload"`
	Config   string    `json:"config"`
	Mode     core.Mode `json:"mode"`

	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	Seconds      float64 `json:"seconds"`
	IPC          float64 `json:"ipc"`

	L1I CacheResult `json:"l1i"`
	L1D CacheResult `json:"l1d"`
	L2  CacheResult `json:"l2"`

	// TotalCacheEnergyJ sums all three caches' energies.
	TotalCacheEnergyJ float64 `json:"total_cache_energy_j"`
}

// MarshalJSON writes the tagged fields plus "Cycles" and "Instructions"
// copies of the two counts: the repository benchmark's per-layer report
// (perfbench/layers.go) reads a fig4-cell's counts under those CamelCase
// keys. Decoding needs no counterpart, because encoding/json folds both
// copies onto the tagged fields, so strict decoding accepts them. Drop
// the copies once that report reads the snake_case keys for both kinds.
func (r Result) MarshalJSON() ([]byte, error) {
	type tagged Result
	return json.Marshal(struct {
		tagged
		CyclesCopy uint64 `json:"Cycles"`
		InstrCopy  uint64 `json:"Instructions"`
	}{tagged(r), r.Cycles, r.Instructions})
}

// level wires one cache's simulator state together.
type level struct {
	spec CacheSpec
	ctrl *core.Controller
	dpcs *core.DPCSPolicy
	plan core.LevelPlan
}

// System is a configured simulator instance.
type System struct {
	cfg    SystemConfig
	mode   core.Mode
	ber    sram.BERModel
	l1i    *level
	l1d    *level
	l2     *level
	cycles uint64
	// arena, when non-nil, owns this system's caches, fault maps and
	// trace blocks; the system is valid until the arena's next build.
	arena *Arena
	// seed is the construction seed, kept so the arena can key its
	// pristine fault-map snapshots (see Arena.faultMapFor).
	seed uint64
}

// NewSystem builds the three cache levels for the given mode, deriving
// per-cache voltage plans from the BER model and populating fault maps
// by seeded Monte Carlo.
func NewSystem(cfg SystemConfig, mode core.Mode, seed uint64) (*System, error) {
	return NewSystemArena(nil, cfg, mode, seed)
}

// NewSystemArena is NewSystem drawing all reusable structures from the
// given arena (nil behaves exactly like NewSystem). The constructed
// system is byte-for-byte equivalent either way — same RNG draw
// sequence, same fault maps, same cold-cache contents — but a warm
// arena supplies the memory without allocating. The returned System is
// valid only until the next NewSystemArena call on the same arena.
func NewSystemArena(a *Arena, cfg SystemConfig, mode core.Mode, seed uint64) (*System, error) {
	ber := sram.NewWangCalhounBER()
	sys := &System{cfg: cfg, mode: mode, ber: ber, arena: a, seed: seed}
	var root *stats.RNG
	if a != nil {
		a.rngRoot.Reseed(seed ^ 0x9C5_DEAD)
		root = &a.rngRoot
	} else {
		root = stats.NewRNG(seed ^ 0x9C5_DEAD)
	}
	// split reproduces root.Split() without allocating on the arena
	// path; the single rngLevel is safe because each buildLevel call
	// finishes with its RNG before the next begins.
	split := func() *stats.RNG {
		if a != nil {
			a.rngLevel.Reseed(root.Uint64())
			return &a.rngLevel
		}
		return root.Split()
	}
	var err error
	if sys.l1i, err = sys.buildLevel(cfg.L1I, split()); err != nil {
		return nil, err
	}
	if sys.l1d, err = sys.buildLevel(cfg.L1D, split()); err != nil {
		return nil, err
	}
	if sys.l2, err = sys.buildLevel(cfg.L2, split()); err != nil {
		return nil, err
	}
	return sys, nil
}

func (s *System) buildLevel(spec CacheSpec, rng *stats.RNG) (*level, error) {
	base, err := baseStaticsFor(spec.Org)
	if err != nil {
		return nil, err
	}
	ccfg := cache.Config{
		Name:       spec.Org.Name,
		SizeBytes:  spec.Org.SizeBytes,
		Assoc:      spec.Org.Assoc,
		BlockBytes: spec.Org.BlockBytes,
	}
	var c *cache.Cache
	if s.arena != nil {
		c = s.arena.cacheFor(ccfg)
	} else {
		c = cache.MustNew(ccfg)
	}

	lv := &level{spec: spec}
	if s.mode == core.Baseline {
		ctrl, err := core.NewController(core.Baseline, c, nil, base.nomLevels, base.cm, s.cfg.ClockHz, 0)
		if err != nil {
			return nil, err
		}
		lv.ctrl = ctrl
		return lv, nil
	}

	geom := faultmodel.Geometry{Sets: c.Sets(), Ways: c.Ways(), BlockBits: spec.Org.BlockBits()}
	pcs, err := pcsStaticsFor(spec.Org, geom, s.ber)
	if err != nil {
		return nil, err
	}
	lv.plan = pcs.plan
	var m *faultmap.Map
	if s.arena != nil {
		m = s.arena.faultMapFor(ccfg, pcs.plan, c.NumBlocks(), s.seed, rng)
	} else {
		m = core.PopulateMapMonteCarlo(rng, pcs.plan, c.NumBlocks())
	}
	if bad := core.EnsureSetsUsable(m, c.Sets(), c.Ways(), 1); len(bad) > 0 {
		core.RepairSets(m, c.Ways(), bad)
	}
	ctrl, err := core.NewController(s.mode, c, m, pcs.plan.Levels, pcs.pcsCM, s.cfg.ClockHz, spec.VoltagePenaltyCycles)
	if err != nil {
		return nil, err
	}
	lv.ctrl = ctrl

	if s.mode == core.DPCS {
		missPenalty := float64(s.cfg.L2.HitCycles)
		if spec.Org.SerialTagData { // this is the L2: misses go to memory
			missPenalty = float64(s.cfg.MemCycles)
		}
		pol, err := core.NewDPCS(core.DPCSConfig{
			Interval:          spec.Interval,
			SuperInterval:     s.cfg.SuperInterval,
			LowThreshold:      s.cfg.LowThreshold,
			HighThreshold:     s.cfg.HighThreshold,
			HitCycles:         float64(spec.HitCycles),
			MissPenaltyCycles: missPenalty,
			SPCSLevel:         pcs.plan.SPCSLevel,
			Ablate:            s.cfg.Ablate,
		}, ctrl)
		if err != nil {
			return nil, err
		}
		lv.dpcs = pol
	}
	return lv, nil
}

// SetSink attaches a telemetry sink to every cache level's controller
// and DPCS policy. Call it before running; the run records the initial
// SPCS/DPCS transitions too. A nil sink detaches telemetry.
func (s *System) SetSink(sink obs.PolicySink) {
	for _, lv := range []*level{s.l1i, s.l1d, s.l2} {
		lv.ctrl.SetSink(sink)
		if lv.dpcs != nil {
			lv.dpcs.SetSink(sink)
		}
	}
}

// start applies the initial policy transition (SPCS and DPCS both begin
// at the SPCS voltage; baseline stays at nominal).
func (s *System) start() {
	sinkL2 := s.writebackToL2
	switch s.mode {
	case core.SPCS:
		core.ApplySPCS(s.l1i.ctrl, s.l1i.plan.SPCSLevel, sinkL2)
		core.ApplySPCS(s.l1d.ctrl, s.l1d.plan.SPCSLevel, sinkL2)
		core.ApplySPCS(s.l2.ctrl, s.l2.plan.SPCSLevel, s.writebackToMem)
	case core.DPCS:
		s.l1i.dpcs.Start(sinkL2)
		s.l1d.dpcs.Start(sinkL2)
		s.l2.dpcs.Start(s.writebackToMem)
	}
}

// armPolicies activates the DPCS decision machinery after warm-up.
func (s *System) armPolicies() {
	for _, lv := range []*level{s.l1i, s.l1d, s.l2} {
		if lv.dpcs != nil {
			lv.dpcs.Arm(s.cycles)
		}
	}
}

// writebackToL2 pushes an L1 writeback into the L2 (energy, no stall).
func (s *System) writebackToL2(addr uint64) {
	res := s.l2.ctrl.Cache.Access(addr, true)
	s.l2.ctrl.OnAccess(true)
	if res.Fill && !res.Hit {
		s.l2.ctrl.OnFill()
	}
	if res.Writeback {
		s.writebackToMem(res.WritebackAddr)
	}
}

// writebackToMem absorbs an L2 writeback (DRAM energy is outside the
// paper's cache-energy accounting).
func (s *System) writebackToMem(addr uint64) {}

// accessL2 performs a demand L2 access, returning the added stall.
func (s *System) accessL2(addr uint64, write bool) uint64 {
	stall := s.cfg.L2.HitCycles
	res := s.l2.ctrl.Cache.Access(addr, write)
	s.l2.ctrl.OnAccess(write)
	if !res.Hit {
		s.l2.ctrl.NoteMiss(blockAlign(addr, s.l2.ctrl.Cache.BlockBytes()))
		stall += s.cfg.MemCycles
		if res.Fill {
			s.l2.ctrl.OnFill()
		}
		if res.Writeback {
			s.writebackToMem(res.WritebackAddr)
		}
	}
	if s.l2.dpcs != nil && s.l2.dpcs.Due() {
		s.cycles += s.l2.dpcs.Tick(s.cycles, s.writebackToMem)
	}
	return s.overlap(stall)
}

// overlap shrinks a demand stall by the configured MLP overlap factor.
func (s *System) overlap(stall uint64) uint64 {
	if s.cfg.MLPOverlap <= 0 {
		return stall
	}
	f := 1 - s.cfg.MLPOverlap
	if f < 0 {
		f = 0
	}
	return uint64(float64(stall) * f)
}

// accessL1 performs a demand access on an L1, recursing into L2 on miss,
// and returns the stall cycles beyond the pipelined hit. step handles
// the memoized repeat-block fast path before calling here, so this is
// the cold half of the split.
func (s *System) accessL1(lv *level, addr uint64, write bool) uint64 {
	res := lv.ctrl.Cache.AccessFull(addr, write)
	lv.ctrl.OnAccess(write)
	var stall uint64
	if !res.Hit {
		lv.ctrl.NoteMiss(blockAlign(addr, lv.ctrl.Cache.BlockBytes()))
		if res.Fill {
			lv.ctrl.OnFill()
		}
		if res.Writeback {
			s.writebackToL2(res.WritebackAddr)
		}
		stall = s.accessL2(addr, write)
	}
	// Interval fast-forward: the policy is quiescent between sampling
	// boundaries (energy and time-at-level integrate lazily in the
	// controller), so the Tick call — and its interval-stats struct
	// copy — is skipped until the access counter crosses the boundary.
	if lv.dpcs != nil && lv.dpcs.Due() {
		s.cycles += lv.dpcs.Tick(s.cycles, s.writebackToL2)
	}
	return stall
}

// blockAlign rounds addr down to its cache-block base address.
func blockAlign(addr uint64, blockBytes int) uint64 {
	return addr &^ (uint64(blockBytes) - 1)
}

// step executes one instruction. The memoized repeat-block L1 hit —
// the dominant outcome for sequential fetch runs and hot data blocks —
// is fused inline here (FastHit and Due both inline), so the common
// case runs without entering accessL1 at all; everything else takes
// the cold accessL1 path. FastHit-then-AccessFull is observationally
// identical to Access, so both halves of the split preserve the exact
// per-access effects of the reference implementation.
func (s *System) step(ins *trace.Instr) {
	s.cycles++ // base CPI of 1
	if s.l1i.ctrl.Cache.FastHit(ins.PC, false) {
		s.l1i.ctrl.OnAccess(false)
		if s.l1i.dpcs != nil && s.l1i.dpcs.Due() {
			s.cycles += s.l1i.dpcs.Tick(s.cycles, s.writebackToL2)
		}
	} else {
		s.cycles += s.accessL1(s.l1i, ins.PC, false)
	}
	if ins.HasMem {
		if s.l1d.ctrl.Cache.FastHit(ins.Addr, ins.Write) {
			s.l1d.ctrl.OnAccess(ins.Write)
			if s.l1d.dpcs != nil && s.l1d.dpcs.Due() {
				s.cycles += s.l1d.dpcs.Tick(s.cycles, s.writebackToL2)
			}
		} else {
			s.cycles += s.accessL1(s.l1d, ins.Addr, ins.Write)
		}
	}
}

// Run simulates the workload under the options and returns the measured
// window's result.
func Run(cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions) (Result, error) {
	return RunContext(context.Background(), cfg, mode, w, opts)
}

// RunContext is Run with cancellation: the instruction loops poll ctx
// and abandon the simulation mid-flight with ctx's error when it is
// cancelled, so a cancelled campaign does not run to completion.
func RunContext(ctx context.Context, cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions) (Result, error) {
	parent := tracez.SpanFromContext(ctx)
	bsp := parent.Child("sim.build")
	sys, err := NewSystemArena(opts.Arena, cfg, mode, opts.Seed)
	bsp.SetStr("config", cfg.Name)
	bsp.SetStr("mode", mode.String())
	bsp.End()
	if err != nil {
		return Result{}, err
	}
	gsp := parent.Child("sim.tracegen")
	gen, err := trace.New(w, opts.Seed)
	gsp.SetStr("workload", w.Name)
	gsp.End()
	if err != nil {
		return Result{}, err
	}
	return sys.run(ctx, gen, opts)
}

// RunGenerator is Run for a caller-supplied instruction source (e.g. a
// replayed trace): the generator's Name labels the result.
func RunGenerator(cfg SystemConfig, mode core.Mode, gen trace.Generator, opts RunOptions) (Result, error) {
	return RunGeneratorContext(context.Background(), cfg, mode, gen, opts)
}

// RunGeneratorContext is RunGenerator with cancellation (see RunContext).
func RunGeneratorContext(ctx context.Context, cfg SystemConfig, mode core.Mode, gen trace.Generator, opts RunOptions) (Result, error) {
	bsp := tracez.SpanFromContext(ctx).Child("sim.build")
	sys, err := NewSystemArena(opts.Arena, cfg, mode, opts.Seed)
	bsp.SetStr("config", cfg.Name)
	bsp.SetStr("mode", mode.String())
	bsp.End()
	if err != nil {
		return Result{}, err
	}
	return sys.run(ctx, gen, opts)
}

// simulate runs n instructions off a trace.Pipe: the pipe fills blocks
// (ahead, on multi-core hosts) while this consumer steps through them,
// with cancellation polled once per block. A cancel arriving mid-block
// is observed at the next block boundary, so simulation stops within
// one block (trace.BlockSize instructions) of the cancel; a threaded
// producer may have run at most the two arena blocks ahead of the stop
// point.
func (s *System) simulate(ctx context.Context, p *trace.Pipe, n uint64) error {
	for n > 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if p.Pos == len(p.Cur) {
			p.Refill()
		}
		blk := p.Cur[p.Pos:]
		if n < uint64(len(blk)) {
			blk = blk[:n]
		}
		for i := range blk {
			s.step(&blk[i])
		}
		p.Pos += len(blk)
		n -= uint64(len(blk))
	}
	return nil
}

// transitionTracer wraps a PolicySink, recording every controller
// voltage transition as a dpcs.transition instant span under parent.
// Interval-decision telemetry passes through untouched: spans stay
// phase-granular, never per-event (transitions are rare).
type transitionTracer struct {
	inner  obs.PolicySink
	parent *tracez.Span
}

// Record implements obs.PolicySink.
func (t *transitionTracer) Record(ev obs.PolicyEvent) {
	if t.inner != nil {
		t.inner.Record(ev)
	}
	if ev.Decision != obs.DecisionTransition {
		return
	}
	sp := t.parent.Child("dpcs.transition")
	sp.SetStr("cache", ev.CacheName)
	sp.SetInt("from", int64(ev.FromLevel))
	sp.SetInt("to", int64(ev.ToLevel))
	sp.SetInt("writebacks", int64(ev.Writebacks))
	sp.SetUint("cycle", ev.Cycle)
	sp.EndInstant()
}

// run drives a prepared system through warm-up and measurement on the
// block pipeline: gen feeds a trace.Pipe, drawn from the system's
// arena when it has one.
func (sys *System) run(ctx context.Context, gen trace.Generator, opts RunOptions) (Result, error) {
	var pa *trace.PipeArena
	if sys.arena != nil {
		pa = &sys.arena.pipes
	}
	p := trace.StartPipeArena(trace.AsBlock(gen), pa)
	defer p.Close()
	return sys.measure(ctx, gen.Name(), opts, func(n uint64) error { return sys.simulate(ctx, p, n) })
}

// measure runs the warm-up and measured windows of a prepared system
// and reports the measured one; window simulates the next n
// instructions of workload.
func (sys *System) measure(ctx context.Context, workload string, opts RunOptions, window func(n uint64) error) (Result, error) {
	cfg := sys.cfg
	mode := sys.mode
	parent := tracez.SpanFromContext(ctx)
	sink := opts.Sink
	if tracez.FromContext(ctx) != nil && parent != nil {
		sink = &transitionTracer{inner: opts.Sink, parent: parent}
	}
	if sink != nil {
		sys.SetSink(sink)
	}
	sys.start()

	wsp := parent.Child("sim.warmup")
	wsp.SetUint("instructions", opts.WarmupInstr)
	if err := window(opts.WarmupInstr); err != nil {
		wsp.End()
		return Result{}, err
	}
	wsp.End()
	sys.armPolicies()
	// Measurement marks.
	startCycles := sys.cycles
	startE := [3]core.EnergyReport{
		sys.l1i.ctrl.Energy(sys.cycles),
		sys.l1d.ctrl.Energy(sys.cycles),
		sys.l2.ctrl.Energy(sys.cycles),
	}
	startStats := [3]cache.Stats{
		sys.l1i.ctrl.Cache.Stats(),
		sys.l1d.ctrl.Cache.Stats(),
		sys.l2.ctrl.Cache.Stats(),
	}
	startTrans := [3]int{
		sys.l1i.ctrl.Transitions(),
		sys.l1d.ctrl.Transitions(),
		sys.l2.ctrl.Transitions(),
	}

	msp := parent.Child("sim.measure")
	msp.SetUint("instructions", opts.SimInstr)
	if err := window(opts.SimInstr); err != nil {
		msp.End()
		return Result{}, err
	}
	msp.End()

	esp := parent.Child("sim.energy")
	cycles := sys.cycles - startCycles
	res := Result{
		Workload:     workload,
		Config:       cfg.Name,
		Mode:         mode,
		Instructions: opts.SimInstr,
		Cycles:       cycles,
		Seconds:      float64(cycles) / cfg.ClockHz,
		IPC:          float64(opts.SimInstr) / float64(cycles),
	}
	finish := func(lv *level, e0 core.EnergyReport, s0 cache.Stats, t0 int) CacheResult {
		e1 := lv.ctrl.Energy(sys.cycles)
		de := core.EnergyReport{
			StaticJ:     e1.StaticJ - e0.StaticJ,
			DynamicJ:    e1.DynamicJ - e0.DynamicJ,
			TransitionJ: e1.TransitionJ - e0.TransitionJ,
			TotalJ:      e1.TotalJ - e0.TotalJ,
		}
		cr := CacheResult{
			Name:              lv.ctrl.Cache.Name(),
			Stats:             lv.ctrl.Cache.Stats().Sub(s0),
			Energy:            de,
			Transitions:       lv.ctrl.Transitions() - t0,
			LevelVolts:        lv.ctrl.Levels.All(),
			TimeAtLevelCycles: lv.ctrl.TimeAtLevelCycles(),
		}
		if res.Seconds > 0 {
			cr.AvgPowerW = de.TotalJ / res.Seconds
		}
		return cr
	}
	res.L1I = finish(sys.l1i, startE[0], startStats[0], startTrans[0])
	res.L1D = finish(sys.l1d, startE[1], startStats[1], startTrans[1])
	res.L2 = finish(sys.l2, startE[2], startStats[2], startTrans[2])
	res.TotalCacheEnergyJ = res.L1I.Energy.TotalJ + res.L1D.Energy.TotalJ + res.L2.Energy.TotalJ
	esp.SetFloat("total_j", res.TotalCacheEnergyJ)
	esp.End()
	return res, nil
}

// ResourceCounts implements obs.ResourceCounter: the runner attributes
// the run's voltage transitions and dirty writebacks to its job in the
// timeline's resources block.
func (r Result) ResourceCounts() (transitions int, writebacks uint64) {
	transitions = r.L1I.Transitions + r.L1D.Transitions + r.L2.Transitions
	writebacks = r.L1I.Stats.Writebacks + r.L1D.Stats.Writebacks + r.L2.Stats.Writebacks
	return transitions, writebacks
}

// String gives a compact one-line summary of a result.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s/%s: IPC=%.3f cycles=%d E=%.3g mJ (L1I %.3g, L1D %.3g, L2 %.3g)",
		r.Config, r.Workload, r.Mode, r.IPC, r.Cycles,
		r.TotalCacheEnergyJ*1e3, r.L1I.Energy.TotalJ*1e3, r.L1D.Energy.TotalJ*1e3, r.L2.Energy.TotalJ*1e3)
}

// Accessors expose the built controllers and policies so higher-level
// substrates (internal/multicore) can compose systems from cpusim's
// per-level construction. Policies are nil outside DPCS mode.

// L1IController returns the instruction-L1 controller.
func (s *System) L1IController() *core.Controller { return s.l1i.ctrl }

// L1DController returns the data-L1 controller.
func (s *System) L1DController() *core.Controller { return s.l1d.ctrl }

// L2Controller returns the L2 controller.
func (s *System) L2Controller() *core.Controller { return s.l2.ctrl }

// L1IPolicy returns the instruction-L1 DPCS policy (nil unless DPCS).
func (s *System) L1IPolicy() *core.DPCSPolicy { return s.l1i.dpcs }

// L1DPolicy returns the data-L1 DPCS policy (nil unless DPCS).
func (s *System) L1DPolicy() *core.DPCSPolicy { return s.l1d.dpcs }

// L2Policy returns the L2 DPCS policy (nil unless DPCS).
func (s *System) L2Policy() *core.DPCSPolicy { return s.l2.dpcs }

// SPCSLevels returns each cache's SPCS voltage level (the VDD2 index),
// or the top level in Baseline mode.
func (s *System) SPCSLevels() (l1i, l1d, l2 int) {
	pick := func(lv *level) int {
		if s.mode == core.Baseline {
			return lv.ctrl.Levels.N()
		}
		return lv.plan.SPCSLevel
	}
	return pick(s.l1i), pick(s.l1d), pick(s.l2)
}

// DebugResult augments Result with policy internals for diagnostics.
type DebugResult struct {
	Result   Result
	Policies [3]*core.DPCSPolicy // L1I, L1D, L2 (nil unless DPCS)
}

// RunDebug is Run, also returning the DPCS policy objects for inspection.
func RunDebug(cfg SystemConfig, mode core.Mode, w trace.Workload, opts RunOptions) (DebugResult, error) {
	sys, err := NewSystem(cfg, mode, opts.Seed)
	if err != nil {
		return DebugResult{}, err
	}
	gen, err := trace.New(w, opts.Seed)
	if err != nil {
		return DebugResult{}, err
	}
	res, err := sys.run(context.Background(), gen, opts)
	if err != nil {
		return DebugResult{}, err
	}
	return DebugResult{Result: res, Policies: [3]*core.DPCSPolicy{sys.l1i.dpcs, sys.l1d.dpcs, sys.l2.dpcs}}, nil
}
