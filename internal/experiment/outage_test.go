package experiment

import (
	"strings"
	"testing"
	"time"
)

func TestControlledOutageTimeline(t *testing.T) {
	spec := DefaultControlledOutage()
	spec.During = 4 * time.Second
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.BeforeMBps < 20 {
		t.Fatalf("pre-attack throughput %.1f, want ≈22.7", res.BeforeMBps)
	}
	if res.DuringMBps > 0.5 {
		t.Fatalf("attack-window throughput %.1f, want ≈0", res.DuringMBps)
	}
	if res.AfterMBps < 20 {
		t.Fatalf("post-attack throughput %.1f, want full recovery", res.AfterMBps)
	}
	// The timeline must cover all three phases.
	total := res.Points[len(res.Points)-1].T
	if total < 13*time.Second {
		t.Fatalf("timeline covers %v, want ≈14s", total)
	}
	chart := res.Chart().String()
	if !strings.Contains(chart, "Controlled outage") {
		t.Fatalf("chart rendering:\n%s", chart)
	}
}

func TestControlledOutageAtSafeFrequencyIsHarmless(t *testing.T) {
	spec := DefaultControlledOutage()
	spec.Freq = 8000
	spec.During = 2 * time.Second
	res, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DuringMBps < 20 {
		t.Fatalf("8 kHz tone should be harmless, got %.1f MB/s", res.DuringMBps)
	}
}
