package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goldenRow is one pinned campaign: a subcommand run at seed 1 whose stdout
// must equal testdata/<name>.golden and, unless the command has no -metrics
// flag, whose metrics snapshot must equal testdata/<name>.metrics.json.
type goldenRow struct {
	name        string
	cmd         string
	args        []string
	workers     bool // the command takes -workers
	cellWorkers bool // the command takes -cell-workers
	noMetrics   bool // the command takes no -metrics
}

// Each row passes only flags its command declares; an unknown flag fails
// the row.
var goldenRows = []goldenRow{
	{name: "figure2-write", cmd: "figure2", args: []string{"-pattern", "write"}, workers: true},
	{name: "figure2-read", cmd: "figure2", args: []string{"-pattern", "read"}, workers: true},
	{name: "table1", cmd: "table1"},
	{name: "table2", cmd: "table2", args: []string{"-runtime", "1"}},
	{name: "table3", cmd: "table3"},
	{name: "cluster", cmd: "cluster", workers: true, cellWorkers: true},
	{name: "cluster-big-cell", cmd: "cluster",
		args: []string{"-cell", "2", "-requests", "200000", "-rate", "100000", "-objects", "64"}, workers: true, cellWorkers: true},
	{name: "cluster-defended-cell", cmd: "cluster",
		args: []string{"-defense", "-attack-stagger", "0.1", "-requests", "300", "-rate", "500", "-cell", "3"}, workers: true, cellWorkers: true},
	{name: "sonar", cmd: "sonar", workers: true},
	{name: "fleet", cmd: "fleet", workers: true, cellWorkers: true},
	{name: "fingerprint", cmd: "fingerprint", args: []string{"-seeds", "1", "-duration", "4"}, workers: true},
	{name: "exfil", cmd: "exfil",
		args: []string{"-distances", "5", "-depths", "0", "-rates", "32,64", "-frames", "2", "-detect-frames", "1"}, workers: true},
	{name: "sweep", cmd: "sweep", workers: true},
	{name: "range", cmd: "range"},
	{name: "crash", cmd: "crash"},
	{name: "defense", cmd: "defense", noMetrics: true},
	{name: "deploy", cmd: "deploy", noMetrics: true},
	{name: "section5", cmd: "section5", noMetrics: true},
	{name: "natick", cmd: "natick", noMetrics: true},
	{name: "outage", cmd: "outage"},
	{name: "remotesweep", cmd: "remotesweep", noMetrics: true},
	{name: "stealth", cmd: "stealth", noMetrics: true},
	{name: "stealthgrid", cmd: "stealthgrid", args: []string{"-duration", "10"}, workers: true},
	{name: "ablation", cmd: "ablation", workers: true, noMetrics: true},
	{name: "resilience", cmd: "resilience", args: []string{"-attack", "20", "-cooldown", "10"}, workers: true},
	{name: "ultrasonic", cmd: "ultrasonic", noMetrics: true},
	{name: "adaptive", cmd: "adaptive", noMetrics: true},
	{name: "integrity", cmd: "integrity", noMetrics: true},
	{name: "selfcheck", cmd: "selfcheck", args: []string{"-repeats", "1"}, workers: true},
}

// serialArgs is run A: one worker, no metrics.
func (r goldenRow) serialArgs() []string {
	args := append([]string(nil), r.args...)
	if r.workers {
		args = append(args, "-workers", "1")
	}
	return args
}

// parallelArgs is run B: eight workers (and eight cell workers where the
// command fans out inside a cell), with the metrics snapshot written to
// metricsPath where the command takes -metrics.
func (r goldenRow) parallelArgs(metricsPath string) []string {
	args := append([]string(nil), r.args...)
	if r.workers {
		args = append(args, "-workers", "8")
	}
	if r.cellWorkers {
		args = append(args, "-cell-workers", "8")
	}
	if r.noMetrics {
		return args
	}
	return append(args, "-metrics", metricsPath)
}

// files is the testdata files the row pins.
func (r goldenRow) files() []string {
	if r.noMetrics {
		return []string{r.name + ".golden"}
	}
	return []string{r.name + ".golden", r.name + ".metrics.json"}
}

// TestGoldenOutputs pins each campaign's stdout and metrics snapshot. Both
// runs of a row must reproduce the golden stdout, so one comparison covers
// the committed result, worker-count independence, and stdout being the
// same with metrics on or off.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are generated on amd64; on %s the compiler may fuse multiply-add, so floats can round differently", runtime.GOARCH)
	}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			golden := filepath.Join("testdata", row.name+".golden")
			goldenMetrics := filepath.Join("testdata", row.name+".metrics.json")
			regen := "go run ./cmd/deepnote " + strings.Join(append([]string{row.cmd}, row.parallelArgs("cmd/deepnote/"+goldenMetrics)...), " ") +
				" > cmd/deepnote/" + golden
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v; regenerate with:\n  %s", err, regen)
			}

			serial := row.serialArgs()
			checkGolden(t, golden, want, runRow(t, row.cmd, serial), strings.Join(serial, " "), regen)

			metricsPath := filepath.Join(t.TempDir(), "metrics.json")
			parallel := row.parallelArgs(metricsPath)
			checkGolden(t, golden, want, runRow(t, row.cmd, parallel), strings.Join(parallel, " "), regen)
			if row.noMetrics {
				return
			}
			wantMetrics, err := os.ReadFile(goldenMetrics)
			if err != nil {
				t.Fatalf("%v; regenerate with:\n  %s", err, regen)
			}
			gotMetrics, err := os.ReadFile(metricsPath)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenMetrics, wantMetrics, gotMetrics, strings.Join(parallel, " "), regen)
		})
	}
}

// TestEverySubcommandPinned fails on a subcommand with no golden row. "all"
// only chains commands that have rows of their own.
func TestEverySubcommandPinned(t *testing.T) {
	pinned := map[string]bool{}
	for _, row := range goldenRows {
		pinned[row.cmd] = true
	}
	for _, c := range commands {
		if c.name != "all" && !pinned[c.name] {
			t.Errorf("subcommand %s has no golden row", c.name)
		}
	}
}

// TestGoldenFilesHaveRows fails on a testdata file that no row pins, and on
// a row whose files are missing, so a renamed row cannot leave a stale
// golden behind.
func TestGoldenFilesHaveRows(t *testing.T) {
	pinned := map[string]bool{}
	for _, row := range goldenRows {
		for _, name := range row.files() {
			pinned[name] = true
			if _, err := os.Stat(filepath.Join("testdata", name)); err != nil {
				t.Errorf("golden row %s: %v", row.name, err)
			}
		}
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !pinned[e.Name()] {
			t.Errorf("testdata/%s belongs to no golden row", e.Name())
		}
	}
}

// runRow runs `deepnote cmd args...` and returns what it printed to
// stdout. Stderr (the per-layer metrics table) is shown only on failure.
func runRow(t *testing.T, cmd string, args []string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{cmd}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("deepnote %s %s: exit %d\n%s", cmd, strings.Join(args, " "), code, &stderr)
	}
	return stdout.Bytes()
}

// checkGolden reports the first line where got departs from want.
func checkGolden(t *testing.T, path string, want, got []byte, args, regen string) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(string(got), "\n")
	for i := 0; ; i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g || i >= len(wantLines) || i >= len(gotLines) {
			t.Errorf("%s differs from the run with args %q at line %d:\n  want %q\n  got  %q\nif the change is intended, regenerate with:\n  %s",
				path, args, i+1, w, g, regen)
			return
		}
	}
}
