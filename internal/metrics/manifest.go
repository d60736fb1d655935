package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"deepnote/internal/report"
)

// Schema identifiers; bump only on breaking layout changes.
const (
	SnapshotSchema = "deepnote-metrics/v1"
	ManifestSchema = "deepnote-manifest/v1"
)

// HistogramBucket is one populated log bucket: Count observations with
// value ≤ LE (and greater than the previous bucket's LE).
type HistogramBucket struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's frozen state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	// P50 and P99 are nearest-rank quantiles resolved to log-bucket upper
	// bounds; Max is exact.
	P50     int64             `json:"p50"`
	P99     int64             `json:"p99"`
	Max     int64             `json:"max"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot is a registry's frozen state. encoding/json marshals map keys
// sorted, so equal registries produce byte-identical documents.
type Snapshot struct {
	Schema string `json:"schema"`
	// VirtualSeconds is the virtual time elapsed since a clock was
	// attached with SetClock (0 when no clock was attached).
	VirtualSeconds float64                      `json:"virtual_seconds"`
	Counters       map[string]int64             `json:"counters"`
	Gauges         map[string]float64           `json:"gauges"`
	Histograms     map[string]HistogramSnapshot `json:"histograms"`
}

// Layer extracts the layer prefix of a metric name ("hdd.reads" → "hdd";
// names without a dot are their own layer).
func Layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// LayerTable renders the per-layer summary: for each layer, how many
// counter series it published, the total event count, the error subtotal
// (counters whose name contains "err"), and histogram sample counts.
func (s Snapshot) LayerTable() *report.Table {
	type agg struct {
		series, events, errors, samples int64
	}
	layers := map[string]*agg{}
	get := func(name string) *agg {
		l := Layer(name)
		a, ok := layers[l]
		if !ok {
			a = &agg{}
			layers[l] = a
		}
		return a
	}
	for name, v := range s.Counters {
		a := get(name)
		a.series++
		a.events += v
		if strings.Contains(name, "err") || strings.Contains(name, "fail") ||
			strings.Contains(name, "corrupt") || strings.Contains(name, "abort") {
			a.errors += v
		}
	}
	for name, h := range s.Histograms {
		get(name).samples += h.Count
	}
	for name := range s.Gauges {
		get(name)
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)

	tb := report.NewTable("Metrics by layer",
		"Layer", "Counters", "Events", "Errors", "Hist samples")
	for _, l := range names {
		a := layers[l]
		tb.AddRow(l,
			fmt.Sprintf("%d", a.series),
			fmt.Sprintf("%d", a.events),
			fmt.Sprintf("%d", a.errors),
			fmt.Sprintf("%d", a.samples))
	}
	return tb
}

// Manifest is the run record written next to a metrics snapshot: enough to
// re-run the experiment and to attribute the numbers to a build.
type Manifest struct {
	Schema string `json:"schema"`
	// Command and Args are the deepnote subcommand and its raw CLI args.
	Command string   `json:"command"`
	Args    []string `json:"args"`
	// Seed and Workers pin the determinism inputs.
	Seed    int64 `json:"seed"`
	Workers int   `json:"workers"`
	// GitDescribe identifies the source tree ("unknown" outside a repo).
	GitDescribe string `json:"git_describe"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Metrics is the final registry snapshot.
	Metrics Snapshot `json:"metrics"`
}

// NewManifest assembles a manifest around a snapshot, stamping the build
// identity.
func NewManifest(command string, args []string, seed int64, workers int, snap Snapshot) Manifest {
	if args == nil {
		args = []string{}
	}
	return Manifest{
		Schema:      ManifestSchema,
		Command:     command,
		Args:        args,
		Seed:        seed,
		Workers:     workers,
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		Metrics:     snap,
	}
}

// GitDescribe returns `git describe --always --dirty` for the working
// directory, or "unknown" when git or the repository is unavailable.
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteSnapshot marshals the snapshot as indented JSON to path.
func WriteSnapshot(path string, s Snapshot) error {
	return writeJSON(path, s)
}

// WriteManifest marshals the manifest as indented JSON to path.
func WriteManifest(path string, m Manifest) error {
	return writeJSON(path, m)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshaling %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
