package config

import (
	"fmt"
	"slices"

	"repro/internal/cpusim"
	"repro/internal/expers"
	"repro/internal/runner"
	"repro/internal/trace"
)

// ExpandCampaign lowers a validated document to the flat campaign the
// runner executes: every grid section becomes wire-format jobs against
// the registered experiment kinds, in the same deterministic order the
// historical binaries ran them. Grid jobs pin the document seed so all
// cells share fault maps; campaign-section jobs keep their own seeding
// (0 = runner-derived per-job seed).
func (d *Document) ExpandCampaign() (runner.Campaign, error) {
	camp := runner.Campaign{Name: d.Name, Seed: d.Seed}
	var (
		jobs []runner.Spec
		err  error
	)
	switch {
	case d.Sim != nil:
		jobs, err = d.Sim.expand(d.Seed)
	case d.Sweep != nil:
		jobs, err = d.Sweep.expand(d.Seed)
	case d.Multicore != nil:
		jobs, err = d.Multicore.expand(d.Seed)
	case d.Campaign != nil:
		jobs, err = d.Campaign.expand()
	default:
		err = fmt.Errorf("config: document has no experiment section")
	}
	if err != nil {
		return runner.Campaign{}, err
	}
	camp.Jobs = jobs
	return camp, nil
}

// expand lowers the Fig. 4 grid through expers.Fig4CellJobs, the same
// builder `pcs sim` runs: config × benchmark × mode "fig4-cell" jobs,
// every cell pinned to the master seed (the cells of one grid must
// share fault maps to be comparable).
func (s *SimSpec) expand(seed uint64) ([]runner.Spec, error) {
	configs, err := cpusim.ConfigsByName(s.Config)
	if err != nil {
		return nil, err
	}
	workloads := trace.Suite()
	if s.Bench != "" {
		w, _ := trace.ByName(s.Bench)
		workloads = []trace.Workload{w}
	}
	opts := cpusim.RunOptions{WarmupInstr: s.WarmupInstr, SimInstr: s.SimInstr, Seed: seed}
	var jobs []runner.Spec
	for _, cfg := range configs {
		cells, err := expers.Fig4CellJobs(cfg, workloads, opts)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, cells...)
	}
	return jobs, nil
}

// StudyList builds the selected studies in the canonical
// expers.StudyNames order, whatever order Studies lists them in. It is
// the one study builder: expand concatenates its job lists, and the CLI
// renders each study's table from that study's slice of the results.
// seed pins the simulation-backed studies' runs (the goldens use seed 1).
func (s *SweepSpec) StudyList(seed uint64) ([]expers.Study, error) {
	var studies []expers.Study
	for _, name := range expers.StudyNames() {
		if !slices.Contains(s.Studies, name) {
			continue
		}
		st, err := expers.StudyByName(name, s.Bench, s.SimInstr, seed, s.Mechanisms)
		if err != nil {
			return nil, err
		}
		studies = append(studies, st)
	}
	return studies, nil
}

// expand concatenates the selected studies' job lists into one flat
// campaign, prefixing each job name with its study ("dpcs/baseline") so
// remote results stay attributable.
func (s *SweepSpec) expand(seed uint64) ([]runner.Spec, error) {
	studies, err := s.StudyList(seed)
	if err != nil {
		return nil, err
	}
	var jobs []runner.Spec
	for _, st := range studies {
		for _, j := range st.Jobs {
			j.Name = st.Name + "/" + j.Name
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// expand lowers the multi-core grid: core count × mode, every cell
// pinned to the master seed, in pcs-multicore's row order.
func (s *MulticoreSpec) expand(seed uint64) ([]runner.Spec, error) {
	var jobs []runner.Spec
	for _, n := range s.Cores {
		for _, mode := range []string{"baseline", "SPCS", "DPCS"} {
			p := expers.MulticoreParams{
				Config:                 s.Config,
				Mode:                   mode,
				Cores:                  n,
				Bench:                  s.Bench,
				WarmupInstr:            s.WarmupInstr,
				InstrPerCore:           s.InstrPerCore,
				SharedBytes:            s.SharedBytes,
				SharedFrac:             s.SharedFrac,
				CoherencePenaltyCycles: s.CoherencePenaltyCycles,
				Seed:                   seed,
			}
			raw, err := marshalJSON(&p)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, runner.Spec{
				Kind:   "multicore",
				Name:   fmt.Sprintf("%dcore/%s", n, mode),
				Params: raw,
			})
		}
	}
	return jobs, nil
}

// expand normalizes the explicit job list: every job strict-decoded
// against its kind's parameter type with defaults applied.
func (s *CampaignSpec) expand() ([]runner.Spec, error) {
	jobs := make([]runner.Spec, 0, len(s.Jobs))
	for i, j := range s.Jobs {
		spec, err := NormalizeJob(j)
		if err != nil {
			return nil, fmt.Errorf("config: job %d: %w", i, err)
		}
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("%s-%d", spec.Kind, i)
		}
		jobs = append(jobs, spec)
	}
	return jobs, nil
}
