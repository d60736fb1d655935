package experiment

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"deepnote/internal/metrics"
)

// ladderRun is one instrumented run of the default ladder: the paper-scale
// episode (100 s of tone against the 80 s crash threshold, then 60 s of
// cooldown) on one worker, with its rows and snapshot in JSON.
type ladderRun struct {
	rows     []ResilienceRow
	rowsJSON []byte
	snap     metrics.Snapshot
	snapJSON []byte
	err      error
}

// runLadder runs DefaultResilience at the given worker count, instrumented.
func runLadder(workers int) ladderRun {
	reg := metrics.NewRegistry()
	spec := DefaultResilience()
	spec.Workers, spec.Metrics = workers, reg
	var run ladderRun
	if run.rows, run.err = spec.Run(); run.err != nil {
		return run
	}
	run.snap = reg.Snapshot()
	if run.rowsJSON, run.err = json.Marshal(run.rows); run.err != nil {
		return run
	}
	run.snapJSON, run.err = json.Marshal(run.snap)
	return run
}

// sharedLadder is the workers-1 run every resilience test reads: the
// ladder and snapshot tests check it, and the determinism test compares
// other worker counts against it.
var sharedLadder = sync.OnceValue(func() ladderRun { return runLadder(1) })

func TestResilienceLadderOutcomes(t *testing.T) {
	run := sharedLadder()
	if run.err != nil {
		t.Fatal(run.err)
	}
	rows := run.rows
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]ResilienceRow{}
	for _, r := range rows {
		byName[r.Config] = r
	}

	bare := byName["bare"]
	if !bare.Crashed || bare.Recovered || bare.Reboots != 0 {
		t.Fatalf("bare stack must crash and stay down: %+v", bare)
	}
	// The paper's Table 3: Ubuntu crashes ≈81 s into the tone, just past
	// the 80 s crash threshold.
	if bare.TimeToCrash < 80*time.Second || bare.TimeToCrash > 84*time.Second {
		t.Fatalf("bare TTC = %v, want ≈81 s", bare.TimeToCrash)
	}
	if bare.BurstMasked {
		t.Fatal("bare stack has no retry layer; the injected burst must surface")
	}

	wd := byName["watchdog"]
	if !wd.Crashed || !wd.Recovered || wd.Reboots != 1 || wd.MTTR <= 0 {
		t.Fatalf("watchdog stack must crash once and recover: %+v", wd)
	}

	hard := byName["hardened"]
	if !hard.Recovered || !hard.BurstMasked {
		t.Fatalf("hardened stack must mask the burst and recover: %+v", hard)
	}
	if hard.AvailabilityPct <= bare.AvailabilityPct {
		t.Fatalf("hardening must buy availability: hardened %.1f%% vs bare %.1f%%",
			hard.AvailabilityPct, bare.AvailabilityPct)
	}

	// Every rung carries the fingerprinting stack, and the full-power tone
	// must be spectrally identified long before the crash threshold.
	for _, r := range rows {
		if !r.Detected {
			t.Fatalf("%s: attack tone never fingerprinted", r.Config)
		}
		if r.DetectLatency >= bare.TimeToCrash {
			t.Fatalf("%s: detection (%v) slower than the bare crash (%v)",
				r.Config, r.DetectLatency, bare.TimeToCrash)
		}
	}
}

func TestResilienceDeterministicAcrossWorkers(t *testing.T) {
	base := sharedLadder()
	if base.err != nil {
		t.Fatal(base.err)
	}
	for _, workers := range []int{2, 8} {
		got := runLadder(workers)
		if got.err != nil {
			t.Fatal(got.err)
		}
		if string(got.rowsJSON) != string(base.rowsJSON) {
			t.Fatalf("rows differ at workers=%d:\n%s\nvs\n%s", workers, got.rowsJSON, base.rowsJSON)
		}
		if string(got.snapJSON) != string(base.snapJSON) {
			t.Fatalf("metrics snapshot differs at workers=%d", workers)
		}
	}
}

func TestResilienceSnapshotShowsFaultsAndRecovery(t *testing.T) {
	// Acceptance: every injected fault and recovery action must be visible
	// in the deepnote-metrics snapshot.
	run := sharedLadder()
	if run.err != nil {
		t.Fatal(run.err)
	}
	snap := run.snap
	for _, key := range []string{
		"faultinj.injected_read_errors",
		"blockdev.retry.requests",
		"blockdev.retry.recovered",
		"osmodel.watchdog.reboots",
		"osmodel.watchdog.replayed_tx",
		"experiment.resilience.bare.crashes",
		"experiment.resilience.hardened.recoveries",
	} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("key %s missing from snapshot", key)
		}
	}
	if snap.Counters["faultinj.injected_read_errors"]+
		snap.Counters["faultinj.injected_write_errors"]+
		snap.Counters["faultinj.injected_flush_errors"] == 0 {
		t.Fatal("no injected faults recorded")
	}
	if snap.Counters["osmodel.watchdog.reboots"] < 2 {
		t.Fatalf("watchdog+hardened should both reboot: %d",
			snap.Counters["osmodel.watchdog.reboots"])
	}
}
