package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/expers"
	"repro/internal/mechanism"
)

// TestRoundTripStability checks encode → decode → encode is a fixed
// point for every section shape: the canonical JSON form is stable.
func TestRoundTripStability(t *testing.T) {
	docs := []string{
		`{"version":1,"sim":{}}`,
		`{"version":1,"name":"fig4-a","seed":7,"workers":4,"sim":{"config":"A","bench":"mcf.s","warmup_instr":1000,"sim_instr":5000}}`,
		`{"version":1,"sweep":{}}`,
		`{"version":1,"sweep":{"studies":["assoc","dpcs"],"bench":"mcf.s","sim_instr":100000}}`,
		`{"version":1,"multicore":{}}`,
		`{"version":1,"multicore":{"cores":[2,8],"shared_frac":0.25}}`,
		`{"version":1,"campaign":{"jobs":[{"kind":"minvdd","name":"m","params":{"size_bytes":32768,"ways":4,"block_bytes":64}}]}}`,
	}
	for _, src := range docs {
		d1, err := Decode([]byte(src), JSON)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		enc1, err := d1.Encode()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		d2, err := Decode(enc1, JSON)
		if err != nil {
			t.Fatalf("decode(encode(%s)): %v\nencoded:\n%s", src, err, enc1)
		}
		enc2, err := d2.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if string(enc1) != string(enc2) {
			t.Errorf("%s: encoding not stable:\n--- first ---\n%s--- second ---\n%s", src, enc1, enc2)
		}
	}
}

// TestUnknownFieldRejection checks strict decoding at every nesting
// depth, in both formats.
func TestUnknownFieldRejection(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fmt  Format
	}{
		{"top-level json", `{"version":1,"sim":{},"typo":1}`, JSON},
		{"section json", `{"version":1,"sim":{"sim_inst":5000}}`, JSON},
		{"sweep json", `{"version":1,"sweep":{"benchmark":"mcf.s"}}`, JSON},
		{"multicore json", `{"version":1,"multicore":{"coars":[1]}}`, JSON},
		{"job params json", `{"version":1,"campaign":{"jobs":[{"kind":"minvdd","params":{"size_bytes":1024,"ways":2,"block_bytes":64,"yeild":0.9}}]}}`, JSON},
		{"trailing json", `{"version":1,"sim":{}} {"version":1}`, JSON},
		{"top-level toml", "version = 1\ntypo = 1\n[sim]\n", TOML},
		{"section toml", "version = 1\n[sim]\nsim_inst = 5000\n", TOML},
		{"job params toml", "version = 1\n[[campaign.jobs]]\nkind = \"minvdd\"\n[campaign.jobs.params]\nsize_bytes = 1024\nways = 2\nblock_bytes = 64\nyeild = 0.9\n", TOML},
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c.src), c.fmt); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.src)
		}
	}
}

// TestDocumentValidation rejects malformed documents with clear errors.
func TestDocumentValidation(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`{"sim":{}}`, "version"},
		{`{"version":2,"sim":{}}`, "version"},
		{`{"version":1}`, "exactly one"},
		{`{"version":1,"sim":{},"sweep":{}}`, "exactly one"},
		{`{"version":1,"sim":{"config":"Z"}}`, "config"},
		{`{"version":1,"sim":{"bench":"nope.s"}}`, "benchmark"},
		{`{"version":1,"sweep":{"studies":["warp"]}}`, "study"},
		{`{"version":1,"sweep":{"studies":["assoc","assoc"]}}`, "twice"},
		{`{"version":1,"multicore":{"cores":[0]}}`, "core count"},
		{`{"version":1,"multicore":{"shared_frac":1.5}}`, "shared_frac"},
		{`{"version":1,"campaign":{}}`, "no jobs"},
		{`{"version":1,"campaign":{"jobs":[{"kind":"warp"}]}}`, "unknown kind"},
		{`{"version":1,"campaign":{"jobs":[{"kind":"cpusim","params":{"bench":"bzip2.s"}}]}}`, ""},
	}
	for _, c := range cases {
		_, err := Decode([]byte(c.src), JSON)
		if err == nil {
			t.Errorf("%s: accepted", c.src)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.src, err, c.want)
		}
	}
}

// TestSectionDefaults checks every omitted knob fills with its
// documented default.
func TestSectionDefaults(t *testing.T) {
	d, err := Decode([]byte(`{"version":1,"sim":{}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "sim" || d.Seed != 1 || d.Workers != 0 {
		t.Errorf("document defaults: %+v", d)
	}
	if got, want := *d.Sim, (SimSpec{Config: "both", WarmupInstr: 2_000_000, SimInstr: 24_000_000}); got != want {
		t.Errorf("sim defaults: %+v, want %+v", got, want)
	}

	d, err = Decode([]byte(`{"version":1,"sweep":{}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "sweep" || d.Sweep.Bench != "bzip2.s" || d.Sweep.SimInstr != 4_000_000 {
		t.Errorf("sweep defaults: %+v", d.Sweep)
	}
	if !reflect.DeepEqual(d.Sweep.Studies, expers.StudyNames()) {
		t.Errorf("sweep studies default: %v, want %v", d.Sweep.Studies, expers.StudyNames())
	}

	d, err = Decode([]byte(`{"version":1,"multicore":{}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	want := MulticoreSpec{
		Config: "A", Bench: "gobmk.s", Cores: []int{1, 2, 4},
		WarmupInstr: 400_000, InstrPerCore: 2_000_000,
		SharedBytes: 1 << 20, SharedFrac: 0.10, CoherencePenaltyCycles: 20,
	}
	if !reflect.DeepEqual(*d.Multicore, want) {
		t.Errorf("multicore defaults: %+v, want %+v", *d.Multicore, want)
	}
}

// TestJobParamDefaults checks default-filling through NormalizeJob for
// every registered campaign kind: the normalized params re-decode into
// the kind's parameter type with the documented defaults present.
func TestJobParamDefaults(t *testing.T) {
	norm := func(t *testing.T, kind, params string) json.RawMessage {
		t.Helper()
		spec, err := NormalizeJob(Job{Kind: kind, Name: "j", Params: json.RawMessage(params)})
		if err != nil {
			t.Fatalf("%s %s: %v", kind, params, err)
		}
		return spec.Params
	}

	t.Run("cpusim", func(t *testing.T) {
		var p expers.CPUSimParams
		if err := json.Unmarshal(norm(t, "cpusim", `{"bench":"bzip2.s","sim_instr":1000}`), &p); err != nil {
			t.Fatal(err)
		}
		if p.Config != "A" || p.Mode != "baseline" {
			t.Errorf("cpusim defaults: %+v", p)
		}
	})
	t.Run("multicore", func(t *testing.T) {
		var p expers.MulticoreParams
		if err := json.Unmarshal(norm(t, "multicore", `{"bench":"gobmk.s","cores":2,"instr_per_core":1000}`), &p); err != nil {
			t.Fatal(err)
		}
		if p.Config != "A" || p.Mode != "baseline" || p.CoherencePenaltyCycles != 20 {
			t.Errorf("multicore defaults: %+v", p)
		}
	})
	t.Run("minvdd", func(t *testing.T) {
		var p expers.MinVDDParams
		if err := json.Unmarshal(norm(t, "minvdd", `{"size_bytes":1024,"ways":2,"block_bytes":64}`), &p); err != nil {
			t.Fatal(err)
		}
		if p.Yield != 0.99 || p.VMin != 0.30 || p.VMax != 1.00 {
			t.Errorf("minvdd defaults: %+v", p)
		}
	})
	t.Run("vddlevels", func(t *testing.T) {
		norm(t, "vddlevels", `{"levels":3}`)
	})
	t.Run("cells", func(t *testing.T) {
		norm(t, "cells", `{}`)
	})
	t.Run("leakage", func(t *testing.T) {
		var p expers.LeakageParams
		if err := json.Unmarshal(norm(t, "leakage", `{}`), &p); err != nil {
			t.Fatal(err)
		}
		if p.SimInstr != 4_000_000 {
			t.Errorf("leakage defaults: %+v", p)
		}
	})
	t.Run("ablation", func(t *testing.T) {
		var p expers.AblationParams
		if err := json.Unmarshal(norm(t, "ablation", `{"sim_instr":8000}`), &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Benches) == 0 || p.WarmupInstr != 2000 {
			t.Errorf("ablation defaults: %+v", p)
		}
	})
}

// TestSimExpansion checks the Fig. 4 grid lowers to fig4-cell jobs in the
// historical config × bench × mode order with the master seed pinned.
func TestSimExpansion(t *testing.T) {
	d, err := Decode([]byte(`{"version":1,"seed":9,"sim":{"bench":"mcf.s","sim_instr":1000,"warmup_instr":100}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := d.ExpandCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if camp.Name != "sim" || camp.Seed != 9 {
		t.Fatalf("campaign %+v", camp)
	}
	wantNames := []string{
		"A/mcf.s/baseline", "A/mcf.s/SPCS", "A/mcf.s/DPCS",
		"B/mcf.s/baseline", "B/mcf.s/SPCS", "B/mcf.s/DPCS",
	}
	if len(camp.Jobs) != len(wantNames) {
		t.Fatalf("jobs = %d, want %d", len(camp.Jobs), len(wantNames))
	}
	for i, j := range camp.Jobs {
		if j.Name != wantNames[i] || j.Kind != "fig4-cell" {
			t.Errorf("job %d = %s/%s, want fig4-cell/%s", i, j.Kind, j.Name, wantNames[i])
		}
		var p expers.Fig4CellParams
		if err := json.Unmarshal(j.Params, &p); err != nil {
			t.Fatal(err)
		}
		if p.Seed != 9 || p.SimInstr != 1000 || p.WarmupInstr != 100 || p.Config.Name != wantNames[i][:1] {
			t.Errorf("job %d params %+v", i, p)
		}
	}
}

// TestSweepExpansion checks study jobs concatenate with study-prefixed
// names, matching the studies' own job lists, in the canonical study
// order whatever order the document lists them in.
func TestSweepExpansion(t *testing.T) {
	d, err := Decode([]byte(`{"version":1,"sweep":{"studies":["dpcs","levels"],"sim_instr":5000}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := d.ExpandCampaign()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := len(expers.LevelsStudy().Jobs) + len(expers.DPCSStudy("bzip2.s", 5000, 1).Jobs)
	if len(camp.Jobs) != wantLen {
		t.Fatalf("jobs = %d, want %d", len(camp.Jobs), wantLen)
	}
	if camp.Jobs[0].Name != "levels/levels=1" {
		t.Errorf("first job %q", camp.Jobs[0].Name)
	}
	if got := camp.Jobs[len(expers.LevelsStudy().Jobs)].Name; got != "dpcs/baseline" {
		t.Errorf("first dpcs job %q", got)
	}
}

// TestMulticoreExpansion checks the cores × mode grid order and pinned
// seed.
func TestMulticoreExpansion(t *testing.T) {
	d, err := Decode([]byte(`{"version":1,"multicore":{"cores":[2,4]}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := d.ExpandCampaign()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, j := range camp.Jobs {
		names = append(names, j.Name)
	}
	want := []string{"2core/baseline", "2core/SPCS", "2core/DPCS", "4core/baseline", "4core/SPCS", "4core/DPCS"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("job names %v, want %v", names, want)
	}
	var p expers.MulticoreParams
	if err := json.Unmarshal(camp.Jobs[0].Params, &p); err != nil {
		t.Fatal(err)
	}
	if p.Seed != 1 || p.Cores != 2 || p.Bench != "gobmk.s" {
		t.Errorf("params %+v", p)
	}
}

// TestCampaignExpansionSeedConvention checks the campaign section keeps
// per-job seeding: params without a seed stay seedless (runner derives),
// pinned seeds survive.
func TestCampaignExpansionSeedConvention(t *testing.T) {
	src := `{"version":1,"seed":5,"campaign":{"jobs":[
		{"kind":"cpusim","params":{"bench":"bzip2.s","sim_instr":100}},
		{"kind":"cpusim","params":{"bench":"bzip2.s","sim_instr":100,"seed":3}}
	]}}`
	d, err := Decode([]byte(src), JSON)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := d.ExpandCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if camp.Seed != 5 {
		t.Fatalf("campaign seed %d", camp.Seed)
	}
	var p0, p1 expers.CPUSimParams
	if err := json.Unmarshal(camp.Jobs[0].Params, &p0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(camp.Jobs[1].Params, &p1); err != nil {
		t.Fatal(err)
	}
	if p0.Seed != 0 {
		t.Errorf("unseeded job gained seed %d", p0.Seed)
	}
	if p1.Seed != 3 {
		t.Errorf("pinned seed lost: %d", p1.Seed)
	}
	if camp.Jobs[0].Name != "cpusim-0" {
		t.Errorf("default job name %q", camp.Jobs[0].Name)
	}
}

// TestExpandBytesSniffsFormat checks the server hook accepts both
// encodings of the same document and produces the same campaign.
func TestExpandBytesSniffsFormat(t *testing.T) {
	jsonSrc := `{"version":1,"workers":3,"multicore":{"cores":[2]}}`
	tomlSrc := "version = 1\nworkers = 3\n\n[multicore]\ncores = [2]\n"
	cj, wj, err := ExpandBytes([]byte(jsonSrc))
	if err != nil {
		t.Fatal(err)
	}
	ct, wt, err := ExpandBytes([]byte(tomlSrc))
	if err != nil {
		t.Fatal(err)
	}
	if wj != 3 || wt != 3 {
		t.Fatalf("workers %d, %d", wj, wt)
	}
	bj, _ := json.Marshal(cj)
	bt, _ := json.Marshal(ct)
	if string(bj) != string(bt) {
		t.Fatalf("campaigns differ:\njson: %s\ntoml: %s", bj, bt)
	}
}

// TestLoadDispatchesOnExtension writes both encodings to disk and loads
// them back.
func TestLoadDispatchesOnExtension(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"spec.json": `{"version":1,"sim":{"sim_instr":1000}}`,
		"spec.toml": "version = 1\n[sim]\nsim_instr = 1_000\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if d.Sim == nil || d.Sim.SimInstr != 1000 {
			t.Errorf("%s: %+v", name, d.Sim)
		}
	}
	if _, err := Load(filepath.Join(dir, "spec.yaml")); err == nil {
		t.Error("accepted .yaml")
	}
}

// TestDigestCanonical checks the spec digest ignores formatting and
// source-format differences but tracks semantic ones.
func TestDigestCanonical(t *testing.T) {
	a, err := Decode([]byte(`{"version":1,"seed":7,"sim":{"config":"A","bench":"mcf.s","sim_instr":5000}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decode([]byte(`{"sim":{"sim_instr":5000,"bench":"mcf.s","config":"A"},"seed":7,"version":1}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	da, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("reordered spec digests differ: %s vs %s", da, db)
	}
	c := *a
	c.Seed = 8
	dc, err := c.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if dc == da {
		t.Error("seed change did not change digest")
	}
}

// TestSweepMechanismValidation checks the sweep section's mechanism
// selection: unknown and duplicate names must fail Decode with a clear
// error, and a valid selection parameterises the "mechs" study.
func TestSweepMechanismValidation(t *testing.T) {
	if _, err := Decode([]byte(
		`{"version":1,"sweep":{"studies":["mechs"],"mechanisms":["nosuch"]}}`), JSON); err == nil ||
		!strings.Contains(err.Error(), "unknown mechanism") {
		t.Errorf("unknown mechanism error = %v", err)
	}
	if _, err := Decode([]byte(
		`{"version":1,"sweep":{"studies":["mechs"],"mechanisms":["proposed","proposed"]}}`), JSON); err == nil ||
		!strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate mechanism error = %v", err)
	}
	// A selection without the mechs study would be silently ignored.
	if _, err := Decode([]byte(
		`{"version":1,"sweep":{"studies":["assoc"],"mechanisms":["tscache"]}}`), JSON); err == nil ||
		!strings.Contains(err.Error(), "omit mechs") {
		t.Errorf("mechanisms without mechs study error = %v", err)
	}
	d, err := Decode([]byte(
		`{"version":1,"sweep":{"studies":["mechs"],"mechanisms":["tscache","l2c2","proposed"]}}`), JSON)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := d.ExpandCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(camp.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 (the selected mechanisms)", len(camp.Jobs))
	}
	// Registry rank order, not request order.
	for i, want := range []string{"mechs/tscache", "mechs/l2c2", "mechs/proposed"} {
		if camp.Jobs[i].Name != want {
			t.Errorf("job %d = %q, want %q", i, camp.Jobs[i].Name, want)
		}
	}
}

// TestMechMinVDDJobNormalization checks the mechminvdd campaign kind:
// NormalizeJob pins the registered mechanism version into the canonical
// params (so the content-addressed cache key moves when a model is
// revised), and rejects a stale pin.
func TestMechMinVDDJobNormalization(t *testing.T) {
	spec, err := NormalizeJob(Job{Kind: "mechminvdd", Name: "ts",
		Params: json.RawMessage(`{"mechanism":"tscache"}`)})
	if err != nil {
		t.Fatal(err)
	}
	var p expers.MechMinVDDParams
	if err := json.Unmarshal(spec.Params, &p); err != nil {
		t.Fatal(err)
	}
	d, ok := mechanism.ByName("tscache")
	if !ok {
		t.Fatal("tscache not registered")
	}
	if p.MechVersion != d.Version {
		t.Errorf("normalized mech_version = %q, want registered %q", p.MechVersion, d.Version)
	}
	if p.Org != "l1a" || p.NLowVDDs != 2 || p.Yield != 0.99 {
		t.Errorf("defaults not applied: %+v", p)
	}
	if _, err := NormalizeJob(Job{Kind: "mechminvdd",
		Params: json.RawMessage(`{"mechanism":"tscache","mech_version":"0-stale"}`)}); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("stale version pin error = %v", err)
	}
	if _, err := NormalizeJob(Job{Kind: "mechminvdd",
		Params: json.RawMessage(`{"mechanism":"nosuch"}`)}); err == nil ||
		!strings.Contains(err.Error(), "unknown mechanism") {
		t.Errorf("unknown mechanism error = %v", err)
	}
}

// TestShippedSpecsExpand loads every spec document shipped in examples/
// and expands it: each must decode, validate and lower to a non-empty
// campaign.
func TestShippedSpecsExpand(t *testing.T) {
	var paths []string
	for _, pat := range []string{"*.json", "*.toml"} {
		m, err := filepath.Glob(filepath.Join("..", "..", "examples", pat))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		t.Fatal("no spec documents in examples/")
	}
	for _, path := range paths {
		d, err := Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		camp, err := d.ExpandCampaign()
		if err != nil {
			t.Errorf("%s: expand: %v", path, err)
			continue
		}
		if len(camp.Jobs) == 0 || camp.Name == "" {
			t.Errorf("%s: campaign %q has %d jobs", path, camp.Name, len(camp.Jobs))
		}
	}
}
