package experiment

import (
	"strings"
	"testing"

	"deepnote/internal/enclosure"
	"deepnote/internal/units"
)

func TestNatickVesselValid(t *testing.T) {
	if err := enclosure.NatickVessel().Validate(); err != nil {
		t.Fatal(err)
	}
	steel := enclosure.PressureVesselSteel()
	alu := enclosure.Aluminum6061()
	if steel.DensityKgM3*steel.ThicknessM <= alu.DensityKgM3*alu.ThicknessM*10 {
		t.Fatal("pressure vessel should be an order of magnitude heavier per area")
	}
}

func TestNatickAnalysisShape(t *testing.T) {
	rows, err := NatickAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // 3 enclosures × 3 tiers
		t.Fatalf("rows = %d", len(rows))
	}
	find := func(enc, tier string) NatickRow {
		for _, r := range rows {
			if strings.Contains(r.Enclosure, enc) && strings.Contains(r.Tier.Name, tier) {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", enc, tier)
		return NatickRow{}
	}
	// The steel vessel demands a much louder incident field than the
	// plastic test container.
	plastic := find("plastic", "pool")
	steel := find("steel", "pool")
	if steel.CriticalSPL.DB < plastic.CriticalSPL.DB+10 {
		t.Fatalf("steel critical %.0f dB should far exceed plastic %.0f dB",
			steel.CriticalSPL.DB, plastic.CriticalSPL.DB)
	}
	// A pool speaker cannot meaningfully threaten the steel vessel...
	if !steel.Unreachable && steel.MaxRange.Centimeters() > 10 {
		t.Fatalf("pool speaker vs steel: range %v, want negligible", steel.MaxRange)
	}
	// ...but sonar-class equipment still can, from distance.
	sonar := find("steel", "military")
	if sonar.Unreachable || sonar.MaxRange.Meters() < 10 {
		t.Fatalf("sonar vs steel: %v (unreachable=%v), want substantial range",
			sonar.MaxRange, sonar.Unreachable)
	}
	rep := NatickReport(rows).String()
	if !strings.Contains(rep, "steel pressure vessel") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}

func TestNatickVesselShrinksVulnerableBand(t *testing.T) {
	tb, err := natickTestbed(enclosure.NatickVessel())
	if err != nil {
		t.Fatal(err)
	}
	// Even point blank at full power, the steel vessel keeps the drive
	// below the write-fault threshold across most of the band; count the
	// vulnerable fraction and require it to be far below the plastic
	// container's.
	vulnSteel := 0
	for f := 100; f <= 4000; f += 50 {
		if tb.OffTrackRatio(float64AsFreq(f)) >= 1 {
			vulnSteel++
		}
	}
	plasticTB, err := natickTestbed(enclosure.PlasticContainer())
	if err != nil {
		t.Fatal(err)
	}
	vulnPlastic := 0
	for f := 100; f <= 4000; f += 50 {
		if plasticTB.OffTrackRatio(float64AsFreq(f)) >= 1 {
			vulnPlastic++
		}
	}
	if vulnSteel*3 > vulnPlastic {
		t.Fatalf("steel vulnerable points %d, plastic %d: steel should shrink the band at least 3x",
			vulnSteel, vulnPlastic)
	}
}

func float64AsFreq(f int) (out units.Frequency) { return units.Frequency(f) }
