package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/runner"
	"repro/internal/version"
)

// TestSimLocalMatchesServed runs one single-config sim document both
// ways — `pcs sim -spec` with -runs, and POST /campaigns on a served
// runner — and requires byte-identical results.jsonl: the local and
// served grids are one campaign, cell for cell.
func TestSimLocalMatchesServed(t *testing.T) {
	dir := t.TempDir()
	doc := []byte(`{"version":1,"seed":3,"sim":{"config":"A","sim_instr":4000,"warmup_instr":1000}}`)
	spec := filepath.Join(dir, "sim.json")
	if err := os.WriteFile(spec, doc, 0o644); err != nil {
		t.Fatal(err)
	}

	// Local: the tables go to stdout, which this test does not read.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	app := &cli.App{Name: "pcs", Output: &bytes.Buffer{}}
	app.Register(simCommand())
	code := app.Run([]string{"sim", "-q", "-spec", spec, "-workers", "2", "-runs", filepath.Join(dir, "local")})
	os.Stdout = stdout
	if code != 0 {
		t.Fatalf("pcs sim exited %d: %s", code, app.Output)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "local", "fig4-A", "*", "results.jsonl"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("local results.jsonl: %v %v", matches, err)
	}
	local, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}

	// Served.
	srv := runner.NewServer(expers.NewCampaignRegistry(), runner.ServerOptions{
		ArtifactRoot: filepath.Join(dir, "served"),
		SpecExpander: config.ExpandBytes,
		CodeVersion:  version.String(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("served campaign did not finish")
		}
		resp, err := http.Get(ts.URL + "/campaigns/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			if st.State != "done" {
				t.Fatalf("served campaign state %q", st.State)
			}
			break
		}
	}
	served, err := os.ReadFile(filepath.Join(dir, "served", sub.ID, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	if len(bytes.Split(bytes.TrimSpace(local), []byte("\n"))) != 48 {
		t.Fatalf("local grid has %d result lines, want 48", bytes.Count(local, []byte("\n")))
	}
	if !bytes.Equal(local, served) {
		t.Fatalf("local and served results.jsonl differ:\n--- local ---\n%.2000s\n--- served ---\n%.2000s", local, served)
	}
}
