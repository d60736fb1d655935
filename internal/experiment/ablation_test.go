package experiment

import (
	"strings"
	"testing"
)

func TestAblationSuite(t *testing.T) {
	rows, err := AblationWorkers(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := func(sub string) AblationRow {
		for _, r := range rows {
			if strings.Contains(r.Variant, sub) {
				return r
			}
		}
		t.Fatalf("variant %q missing", sub)
		return AblationRow{}
	}

	base := byName("baseline")
	// The calibrated model reproduces the paper's cells.
	if base.Write10cmMBps > 1 || base.Read10cmMBps < 10 {
		t.Fatalf("baseline off: %+v", base)
	}
	if !base.NoResponseAt5cm {
		t.Fatal("baseline should deadlock at 5 cm")
	}
	if base.BandTopHz < 1500 || base.BandTopHz > 2000 {
		t.Fatalf("baseline band top %v", base.BandTopHz)
	}

	// Removing the servo lock-loss cliff keeps the drive limping at
	// 5 cm instead of deadlocking: the cliff is what produces the
	// paper's "no response" rows.
	noLock := byName("lock-loss")
	if noLock.NoResponseAt5cm {
		t.Error("without lock loss, 5 cm should not fully deadlock")
	}

	// Equal fault thresholds erase the read/write asymmetry — the core
	// §4.1 observation disappears.
	equal := byName("equal r/w")
	if equal.Read10cmMBps > 2*equal.Write10cmMBps+1 {
		t.Errorf("equal thresholds should erase asymmetry: read %.1f vs write %.1f",
			equal.Read10cmMBps, equal.Write10cmMBps)
	}

	// Cheap write retries recover meaningful write throughput at 10 cm:
	// the revolution-priced retry is why writes crawl.
	cheap := byName("cheap write")
	if cheap.Write10cmMBps < 2*base.Write10cmMBps {
		t.Errorf("cheap retries should lift 10 cm writes: %.2f vs baseline %.2f",
			cheap.Write10cmMBps, base.Write10cmMBps)
	}

	// A flat servo (no low-frequency rejection) cannot shrink the band's
	// top edge — the upper edge comes from the wall, not the servo — but
	// baseline behaviour elsewhere must persist.
	flat := byName("flat")
	if flat.BandTopHz < base.BandTopHz-200 {
		t.Errorf("flat servo should not lower the band top: %v vs %v",
			flat.BandTopHz, base.BandTopHz)
	}

	rep := AblationReport(rows).String()
	if !strings.Contains(rep, "baseline") || !strings.Contains(rep, "band top") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}
