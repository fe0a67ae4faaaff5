package runner

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

func readTimeline(t *testing.T, dir string) []obs.JobEvent {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "timeline.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []obs.JobEvent
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev obs.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("timeline line %d: %v", len(out)+1, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTimelineArtifact checks timeline.jsonl brackets the campaign with
// start/finish events and records a started + terminal event per job.
func TestTimelineArtifact(t *testing.T) {
	reg := testRegistry(t)
	dir := filepath.Join(t.TempDir(), "run")
	c := drawSumCampaign(6)
	c.Jobs[2] = Spec{Kind: "fail", Name: "bad"}
	if _, err := Run(context.Background(), reg, c, Options{Workers: 3, ArtifactDir: dir}); err != nil {
		t.Fatal(err)
	}
	evs := readTimeline(t, dir)
	if len(evs) < 2 {
		t.Fatalf("timeline has %d events", len(evs))
	}
	if evs[0].Type != obs.EventCampaignStarted || evs[0].Campaign != "det" || evs[0].Index != -1 {
		t.Fatalf("first event %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Type != obs.EventCampaignFinished || last.State != "failed" {
		t.Fatalf("last event %+v", last)
	}
	started := map[int]bool{}
	terminal := map[int]obs.JobEventType{}
	prevElapsed := -1.0
	for _, ev := range evs {
		if ev.ElapsedMS < prevElapsed {
			t.Fatalf("elapsed offsets not monotone: %g after %g", ev.ElapsedMS, prevElapsed)
		}
		prevElapsed = ev.ElapsedMS
		switch ev.Type {
		case obs.EventJobStarted:
			started[ev.Index] = true
		case obs.EventJobDone, obs.EventJobFailed, obs.EventJobCancelled:
			terminal[ev.Index] = ev.Type
		}
	}
	for i := 0; i < 6; i++ {
		if !started[i] {
			t.Errorf("job %d has no started event", i)
		}
		want := obs.EventJobDone
		if i == 2 {
			want = obs.EventJobFailed
		}
		if terminal[i] != want {
			t.Errorf("job %d terminal event %q, want %q", i, terminal[i], want)
		}
	}
}

// TestJobHooks checks OnEvent delivers the lifecycle stream (one
// job_started per job, bracketed by the campaign events) and JobContext
// decorates the context the kind function receives.
func TestJobHooks(t *testing.T) {
	reg := testRegistry(t)
	type ctxKey struct{}
	reg.MustRegister("ctxcheck", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		return ctx.Value(ctxKey{}), nil
	})
	c := Campaign{Name: "hooks", Seed: 7}
	for i := 0; i < 4; i++ {
		c.Jobs = append(c.Jobs, Spec{Kind: "ctxcheck"})
	}
	var events []obs.JobEvent // OnEvent is serialised
	startedIdx := map[int]bool{}
	res, err := Run(context.Background(), reg, c, Options{
		Workers: 2,
		OnEvent: func(ev obs.JobEvent) {
			events = append(events, ev)
			if ev.Type == obs.EventJobStarted {
				startedIdx[ev.Index] = true
			}
		},
		JobContext: func(ctx context.Context, i int, _ Spec) context.Context {
			return context.WithValue(ctx, ctxKey{}, i*10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(startedIdx) != 4 {
		t.Fatalf("OnEvent saw %d started jobs, want 4", len(startedIdx))
	}
	if len(events) != 2+2*4 || events[0].Type != obs.EventCampaignStarted ||
		events[len(events)-1].Type != obs.EventCampaignFinished || events[len(events)-1].State != "done" {
		t.Fatalf("event stream %+v", events)
	}
	for i, r := range res.Results {
		if got, ok := r.Output.(int); !ok || got != i*10 {
			t.Fatalf("job %d output %#v, want %d", i, r.Output, i*10)
		}
	}
}

// TestJobDurationRecorded checks Duration is populated in memory but
// never serialised (the determinism contract).
func TestJobDurationRecorded(t *testing.T) {
	reg := testRegistry(t)
	reg.MustRegister("sleep", func(ctx context.Context, _ uint64, _ json.RawMessage) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return "ok", nil
	})
	c := Campaign{Name: "dur", Seed: 1, Jobs: []Spec{{Kind: "sleep"}}}
	res, err := Run(context.Background(), reg, c, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Duration < 5*time.Millisecond {
		t.Fatalf("duration %s not recorded", res.Results[0].Duration)
	}
	b, err := json.Marshal(res.Results[0])
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if k == "duration" || k == "Duration" || k == "duration_ns" {
			t.Fatalf("duration leaked into serialised record: %s", b)
		}
	}
}
