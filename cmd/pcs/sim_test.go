package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/expers"
	"repro/internal/runner"
	"repro/internal/version"
)

// runPCS runs one pcs subcommand in-process, as main wires it (PCS_*
// environment defaults included), and returns its stdout.
func runPCS(t *testing.T, cmd *cli.Command, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	app := &cli.App{Name: "pcs", EnvPrefix: "PCS", Output: &bytes.Buffer{}}
	app.Register(cmd)
	code := app.Run(append([]string{cmd.Name}, args...))
	os.Stdout = stdout
	if code != 0 {
		t.Fatalf("pcs %v exited %d: %s", args, code, app.Output)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// serve runs doc as POST /campaigns on a served runner and returns the
// campaign's results.jsonl.
func serve(t *testing.T, doc []byte) []byte {
	t.Helper()
	root := t.TempDir()
	srv := runner.NewServer(expers.NewCampaignRegistry(), runner.ServerOptions{
		ArtifactRoot: root,
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
	for deadline := time.Now().Add(120 * time.Second); ; time.Sleep(20 * time.Millisecond) {
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
	served, err := os.ReadFile(filepath.Join(root, sub.ID, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return served
}

// TestLocalMatchesServed runs each grid section's document both ways —
// `pcs sim|sweep|multicore -spec` with -runs, and POST /campaigns on a
// served runner — and requires the local command to leave exactly one
// campaign whose results.jsonl is byte-identical to the served one: the
// two paths lower a document to one campaign, cell for cell.
func TestLocalMatchesServed(t *testing.T) {
	// examples/multicore.toml at reduced windows: the local run narrows
	// it with flags, the served run posts the same values in the document.
	mcSpec := filepath.Join("..", "..", "examples", "multicore.toml")
	mc, err := config.Load(mcSpec)
	if err != nil {
		t.Fatal(err)
	}
	mc.Multicore.Cores = []int{1, 2}
	mc.Multicore.WarmupInstr, mc.Multicore.InstrPerCore = 500, 3000
	mcDoc, err := mc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cmd   func() *cli.Command
		doc   []byte // written to the -spec file unless spec is set
		spec  string
		args  []string
		cells int
	}{
		{
			name:  "sim both configs",
			cmd:   simCommand,
			doc:   []byte(`{"version":1,"seed":3,"sim":{"sim_instr":4000,"warmup_instr":1000}}`),
			args:  []string{"-q"},
			cells: 96,
		},
		{
			name:  "sweep out of canonical order",
			cmd:   sweepCommand,
			doc:   []byte(`{"version":1,"sweep":{"studies":["mechs","levels","assoc"],"mechanisms":["proposed","tscache"]}}`),
			cells: 2 + 5 + 20,
		},
		{
			name:  "multicore example",
			cmd:   multicoreCommand,
			doc:   mcDoc,
			spec:  mcSpec,
			args:  []string{"-cores", "1,2", "-warmup", "500", "-instr", "3000"},
			cells: 6,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			spec := tc.spec
			if spec == "" {
				spec = filepath.Join(dir, "spec.json")
				if err := os.WriteFile(spec, tc.doc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			runs := filepath.Join(dir, "runs")
			runPCS(t, tc.cmd(), append([]string{"-spec", spec, "-workers", "2", "-runs", runs}, tc.args...)...)
			dirs, err := filepath.Glob(filepath.Join(runs, "*", "*"))
			if err != nil || len(dirs) != 1 {
				t.Fatalf("local run dirs: %v %v, want exactly one", dirs, err)
			}
			local, err := os.ReadFile(filepath.Join(dirs[0], "results.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if n := len(bytes.Split(bytes.TrimSpace(local), []byte("\n"))); n != tc.cells {
				t.Fatalf("local campaign has %d result lines, want %d", n, tc.cells)
			}
			if served := serve(t, tc.doc); !bytes.Equal(local, served) {
				t.Fatalf("local and served results.jsonl differ:\n--- local ---\n%.2000s\n--- served ---\n%.2000s", local, served)
			}
		})
	}
}

// TestFlagEnvSpecPrecedence pins the merge order of a grid command's
// inputs on one field, the multicore benchmark (the table title names
// it): an explicit flag beats PCS_<FLAG>, which beats the -spec
// document, which beats the default.
func TestFlagEnvSpecPrecedence(t *testing.T) {
	for _, tc := range []struct {
		flag, env, spec, want string
	}{
		{"mcf.s", "hmmer.s", "sjeng.s", "mcf.s"},
		{"", "hmmer.s", "sjeng.s", "hmmer.s"},
		{"", "", "sjeng.s", "sjeng.s"},
		{"", "", "", "gobmk.s"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			bench := ""
			if tc.spec != "" {
				bench = `"bench":"` + tc.spec + `",`
			}
			spec := filepath.Join(t.TempDir(), "mc.json")
			doc := `{"version":1,"multicore":{` + bench + `"cores":[1],"warmup_instr":100,"instr_per_core":1000}}`
			if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Setenv("PCS_BENCH", tc.env)
			if tc.env == "" {
				os.Unsetenv("PCS_BENCH") // restored by Setenv's cleanup
			}
			args := []string{"-spec", spec}
			if tc.flag != "" {
				args = append(args, "-bench", tc.flag)
			}
			out := runPCS(t, multicoreCommand(), args...)
			if !strings.Contains(out, "Multi-core PCS: "+tc.want+" on Config A, 1000 instr/core") {
				t.Fatalf("flag %q, env %q, spec %q: want %s in\n%s", tc.flag, tc.env, tc.spec, tc.want, out)
			}
		})
	}
}
