package experiment

import (
	"strings"
	"testing"

	"deepnote/internal/units"
)

func TestIntegrityMarginalAttackCorruptsSilently(t *testing.T) {
	spec := DefaultIntegrity()
	spec.CorruptionProb = 0.1
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Marginal means the attack itself looks nearly harmless...
	if res.WritesFailed > res.WritesAttempted/4 {
		t.Fatalf("attack not marginal: %d/%d writes failed", res.WritesFailed, res.WritesAttempted)
	}
	// ...while previously written data rots.
	if res.CorruptedBlocks == 0 {
		t.Fatal("no corruption observed")
	}
	if res.CorruptedBlocks >= res.TotalBlocks {
		t.Fatal("total corruption is not the marginal-attack signature")
	}
	rep := res.Report().String()
	if !strings.Contains(rep, "corrupted") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}

func TestIntegrityNoCorruptionWithoutMechanism(t *testing.T) {
	spec := DefaultIntegrity()
	spec.CorruptionProb = 0
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptedBlocks != 0 {
		t.Fatalf("corruption without the mechanism: %d blocks", res.CorruptedBlocks)
	}
}

func TestIntegrityNoCorruptionAtStandoff(t *testing.T) {
	// At 25 cm the amplitude is below the marginal zone: writes are
	// clean and nothing rots even with the mechanism armed.
	spec := Integrity{CorruptionProb: 0.5, Distance: 40 * units.Centimeter}
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptedBlocks != 0 {
		t.Fatalf("standoff corruption: %d blocks", res.CorruptedBlocks)
	}
	if res.WritesFailed != 0 {
		t.Fatalf("standoff write failures: %d", res.WritesFailed)
	}
}
