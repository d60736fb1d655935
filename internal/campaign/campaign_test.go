package campaign

import (
	"testing"
	"time"
)

func TestContinuousAttackIsLoudAndDetected(t *testing.T) {
	res, err := Stealth{
		Duty:     DutyCycle{On: 2 * time.Second, Off: 0},
		Duration: 30 * time.Second,
		Seed:     1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.LossFraction < 0.95 {
		t.Fatalf("continuous attack loss = %.2f, want ≈1", res.LossFraction)
	}
	if res.Alarms == 0 {
		t.Fatal("continuous attack must trip the detector")
	}
	if res.MaxSuspicion < 0.5 {
		t.Fatalf("max suspicion = %.2f", res.MaxSuspicion)
	}
}

func TestDutyCycledAttackTradesDamageForStealth(t *testing.T) {
	loud, err := Stealth{
		Duty:     DutyCycle{On: 2 * time.Second, Off: 0},
		Duration: 30 * time.Second,
		Seed:     1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := Stealth{
		Duty:     DutyCycle{On: 500 * time.Millisecond, Off: 10 * time.Second},
		Duration: 30 * time.Second,
		Seed:     1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The stealth variant must do less damage...
	if quiet.LossFraction >= loud.LossFraction {
		t.Fatalf("duty-cycled loss %.2f should be below continuous %.2f",
			quiet.LossFraction, loud.LossFraction)
	}
	// ...but still a meaningful delay injection...
	if quiet.LossFraction < 0.02 {
		t.Fatalf("duty-cycled attack did nothing: loss %.3f", quiet.LossFraction)
	}
	// ...while staying quieter on the victim's detector.
	if quiet.MaxSuspicion >= loud.MaxSuspicion {
		t.Fatalf("stealth suspicion %.2f should be below continuous %.2f",
			quiet.MaxSuspicion, loud.MaxSuspicion)
	}
	if quiet.Alarms > loud.Alarms {
		t.Fatalf("stealth alarms %d exceed continuous %d", quiet.Alarms, loud.Alarms)
	}
}

func TestDutyCycleFraction(t *testing.T) {
	d := DutyCycle{On: time.Second, Off: 3 * time.Second}
	if d.Fraction() != 0.25 {
		t.Fatalf("fraction = %v", d.Fraction())
	}
	if (DutyCycle{}).Fraction() != 0 {
		t.Fatal("zero duty cycle fraction")
	}
}

func TestCampaignTimelineCoversRun(t *testing.T) {
	res, err := Stealth{
		Duty:     DutyCycle{On: time.Second, Off: 2 * time.Second},
		Duration: 12 * time.Second,
		Seed:     1,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) < 15 { // 5s baseline + ≥12s campaign
		t.Fatalf("timeline buckets = %d", len(res.Timeline))
	}
	if res.BaselineMBps < 20 {
		t.Fatalf("baseline = %.1f", res.BaselineMBps)
	}
}
