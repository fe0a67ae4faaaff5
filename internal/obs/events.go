package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// JobEventType classifies one campaign lifecycle event.
type JobEventType string

const (
	// EventCampaignStarted opens a campaign's timeline.
	EventCampaignStarted JobEventType = "campaign_started"
	// EventJobStarted marks a job picked up by a worker.
	EventJobStarted JobEventType = "job_started"
	// EventJobDone marks a job that returned without error.
	EventJobDone JobEventType = "job_done"
	// EventJobFailed marks a job that returned an error or panicked.
	EventJobFailed JobEventType = "job_failed"
	// EventJobCancelled marks a job abandoned by cancellation.
	EventJobCancelled JobEventType = "job_cancelled"
	// EventCampaignFinished closes a campaign's timeline.
	EventCampaignFinished JobEventType = "campaign_finished"
)

// JobEvent is one line of a campaign timeline (runs/<ts>/timeline.jsonl
// and the pcs-server GET /campaigns/{id}/events stream). Unlike job
// result records, timeline events deliberately carry wall-clock timing —
// they exist to show where campaign time went.
type JobEvent struct {
	Type JobEventType `json:"type"`
	// Campaign names the campaign (campaign_* events).
	Campaign string `json:"campaign,omitempty"`
	// Index is the job's position in the campaign; -1 on campaign_*
	// events.
	Index int `json:"index"`
	// Kind and Name identify the job's spec.
	Kind string `json:"kind,omitempty"`
	Name string `json:"name,omitempty"`
	// Error carries the failure or cancellation message.
	Error string `json:"error,omitempty"`
	// ElapsedMS is the offset from campaign start.
	ElapsedMS float64 `json:"elapsed_ms"`
	// DurationMS is the job's own wall-clock duration (terminal job
	// events only).
	DurationMS float64 `json:"duration_ms,omitempty"`
	// Cached marks a job served from the content-addressed result store
	// rather than computed (job_done events only). It lives in the
	// timeline, not in result records, so results.jsonl stays
	// byte-identical across cached and uncached executions.
	Cached bool `json:"cached,omitempty"`
	// State is the campaign's terminal state (campaign_finished only).
	State string `json:"state,omitempty"`
	// Resources is the job's resource-attribution block (terminal job
	// events only). Like Cached and DurationMS it lives in the
	// timeline, never in result records, so results.jsonl stays
	// byte-identical across worker counts and machines.
	Resources *JobResources `json:"resources,omitempty"`
}

// CellLabel names a campaign cell: the spec name when set, else
// kind#index. The top-cells reports print it and the runner uses it as
// the cell's pprof "cell" label, so a cell seen in `pcs top` is found
// in a CPU profile under the same name.
func CellLabel(kind, name string, index int) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("%s#%d", kind, index)
}

// JobResources attributes measured cost to one job: where the
// campaign's wall time and allocations actually went. Allocations are
// runtime/metrics heap deltas sampled on the worker goroutine — exact
// for the serial portions of a job, approximate for anything the job
// itself parallelises. CPU time is not a field: it is attributed by
// the pprof labels the runner puts on every kind call (DESIGN.md §11.2).
type JobResources struct {
	// WallMS is the job's wall-clock duration.
	WallMS float64 `json:"wall_ms"`
	// Allocs and AllocBytes are heap allocation deltas over the job.
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// CacheHit/CacheMiss attribute the resultstore probe: exactly one
	// is true when the job consulted the store, both false otherwise.
	CacheHit  bool `json:"cache_hit,omitempty"`
	CacheMiss bool `json:"cache_miss,omitempty"`
	// Transitions and Writebacks summarise the simulator's DPCS
	// activity when the job's output reports it (see ResourceCounter).
	Transitions int    `json:"transitions,omitempty"`
	Writebacks  uint64 `json:"writebacks,omitempty"`
}

// ResourceCounter is implemented by job outputs that can report their
// simulator-side resource counts (DPCS transitions, writebacks) for
// the timeline's attribution block. cpusim.Result implements it.
type ResourceCounter interface {
	ResourceCounts() (transitions int, writebacks uint64)
}

// ReadJobEvents decodes a timeline.jsonl stream.
func ReadJobEvents(r io.Reader) ([]JobEvent, error) {
	dec := json.NewDecoder(r)
	var events []JobEvent
	for {
		var ev JobEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return events, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: timeline event %d: %w", len(events), err)
		}
		events = append(events, ev)
	}
}

// ReadJobTimeline reads a timeline.jsonl file.
func ReadJobTimeline(path string) ([]JobEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	return ReadJobEvents(f)
}
