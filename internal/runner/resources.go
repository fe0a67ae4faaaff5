package runner

import (
	rm "runtime/metrics"
	"time"

	"repro/internal/obs"
)

// resourceProbe measures one job's resource consumption for the
// timeline's attribution block (obs.JobResources): heap allocation
// deltas via runtime/metrics and the resultstore probe outcome. CPU
// time is not measured here: runJob labels the kind call with pprof
// labels instead, which also cover the goroutines a job spawns (the
// trace-pipe producer), so CPU profiles slice per cell and per kind.
//
// Allocation deltas are per-process heap counters sampled on the
// worker goroutine, so with several workers they include a slice of
// the neighbours' allocations; they are attribution hints, not exact
// accounting, and are documented as such (DESIGN.md §11).
type resourceProbe struct {
	allocs0 uint64
	bytes0  uint64
	samples [2]rm.Sample
	// cacheMiss is set by runJob when a resultstore probe came back
	// empty (a hit is read off JobResult.Cached instead).
	cacheMiss bool
}

// startResourceProbe samples the baselines.
func startResourceProbe() *resourceProbe {
	p := &resourceProbe{}
	p.samples[0].Name = "/gc/heap/allocs:objects"
	p.samples[1].Name = "/gc/heap/allocs:bytes"
	rm.Read(p.samples[:])
	if p.samples[0].Value.Kind() == rm.KindUint64 {
		p.allocs0 = p.samples[0].Value.Uint64()
	}
	if p.samples[1].Value.Kind() == rm.KindUint64 {
		p.bytes0 = p.samples[1].Value.Uint64()
	}
	return p
}

// stop samples the end state and returns the attribution block. wall
// is the job's already-measured duration.
func (p *resourceProbe) stop(wall time.Duration) *obs.JobResources {
	res := &obs.JobResources{
		WallMS:    float64(wall.Microseconds()) / 1e3,
		CacheMiss: p.cacheMiss,
	}
	rm.Read(p.samples[:])
	if p.samples[0].Value.Kind() == rm.KindUint64 {
		res.Allocs = p.samples[0].Value.Uint64() - p.allocs0
	}
	if p.samples[1].Value.Kind() == rm.KindUint64 {
		res.AllocBytes = p.samples[1].Value.Uint64() - p.bytes0
	}
	return res
}
