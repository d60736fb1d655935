package experiment

import (
	"strings"
	"testing"
)

func TestRedundancyPlacementMatrix(t *testing.T) {
	rows, err := Redundancy(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	find := func(level, placement string) RedundancyRow {
		for _, r := range rows {
			if r.Level.String() == level && strings.Contains(r.Placement, placement) {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", level, placement)
		return RedundancyRow{}
	}

	// Shared enclosure: common-mode failure defeats both levels, and the
	// attack ejects members until the array is dead.
	if r := find("RAID-1", "share"); r.Survived || r.DegradedMembers != 2 {
		t.Errorf("co-located RAID-1 should die losing both mirrors: %+v", r)
	}
	if r := find("RAID-5", "share"); r.Survived || r.DegradedMembers != 2 {
		t.Errorf("co-located RAID-5 should die losing two members: %+v", r)
	}

	// Split placement: RAID-1 keeps one healthy mirror and survives.
	split1 := find("RAID-1", "split")
	if !split1.Survived {
		t.Errorf("split RAID-1 should survive: %+v", split1)
	}
	if split1.WriteMBps <= 0 {
		t.Errorf("split RAID-1 should keep serving writes: %+v", split1)
	}
	if split1.DegradedMembers != 1 {
		t.Errorf("split RAID-1 should lose exactly the attacked mirror: %+v", split1)
	}

	// Split RAID-5 with half its members attacked loses 2 of 4: beyond
	// single-parity tolerance.
	split5 := find("RAID-5", "split")
	if split5.Survived || split5.DegradedMembers != 2 {
		t.Errorf("split RAID-5 should die losing its two attacked members: %+v", split5)
	}

	rep := RedundancyReport(rows).String()
	if !strings.Contains(rep, "RAID-1") || !strings.Contains(rep, "split") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}
