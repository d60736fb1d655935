package thermal

import (
	"testing"
	"testing/quick"

	"deepnote/internal/water"
)

func TestColdWaterKeepsDriveOK(t *testing.T) {
	m := Default(water.Seawater(36)) // 12 °C sea
	if got := m.StateAt(22.7); got != OK {
		t.Fatalf("state at full load = %v, temp %.1f", got, m.DriveTempC(22.7))
	}
	if m.ThrottleFactor(22.7) != 1 {
		t.Fatal("cold water should not throttle")
	}
}

func TestTemperatureMonotoneInLoad(t *testing.T) {
	m := Default(water.FreshwaterTank())
	prop := func(a, b uint8) bool {
		la, lb := float64(a), float64(b)
		if la > lb {
			la, lb = lb, la
		}
		return m.DriveTempC(la) <= m.DriveTempC(lb)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	if m.DriveTempC(-5) != m.DriveTempC(0) {
		t.Fatal("negative load should clamp to idle")
	}
}

func TestDefensePenaltyPushesIntoThrottle(t *testing.T) {
	m := Default(water.Seawater(20)) // 12 + 6 + 8 = 26 °C idle
	load := 22.7
	base := m.DriveTempC(load)
	// A defense stack costing more than the headroom throttles the drive.
	headroom := ThrottleAtC - base
	if headroom <= 0 {
		t.Fatalf("baseline should have headroom, temp %.1f", base)
	}
	hot := m.WithDefensePenalty(headroom + 5)
	if hot.StateAt(load) == OK {
		t.Fatalf("defense past headroom should throttle: %.1f °C", hot.DriveTempC(load))
	}
	if f := hot.ThrottleFactor(load); f >= 1 || f < 0 {
		t.Fatalf("throttle factor = %v", f)
	}
}

func TestShutdownAtExtremePenalty(t *testing.T) {
	m := Default(water.Seawater(20)).WithDefensePenalty(60)
	if m.StateAt(10) != Shutdown {
		t.Fatalf("state = %v at %.1f °C", m.StateAt(10), m.DriveTempC(10))
	}
	if m.ThrottleFactor(10) != 0 {
		t.Fatal("shutdown should zero throughput")
	}
}

func TestThrottleFactorContinuous(t *testing.T) {
	m := Default(water.Seawater(20))
	// Find the penalty that lands exactly on the throttle point; the
	// factor must decrease continuously past it.
	budget := ThrottleAtC - m.DriveTempC(20)
	prev := 1.0
	for extra := 0.0; extra <= 12; extra += 1 {
		f := m.WithDefensePenalty(budget + extra).ThrottleFactor(20)
		if f > prev+1e-9 {
			t.Fatalf("throttle factor rose with heat at +%.0f°C", extra)
		}
		prev = f
	}
	if prev >= 1 {
		t.Fatal("factor never dropped below 1 across the ramp")
	}
}

func TestWarmShallowWaterHasLessBudget(t *testing.T) {
	cold := Default(water.Seawater(36))
	warm := Default(water.Medium{TempC: 28, SalinityPSU: 35, DepthM: 5, AcidityPH: 8})
	if warm.DriveTempC(20) <= cold.DriveTempC(20) {
		t.Fatal("warm shallow water must leave less thermal budget for defenses")
	}
}

func TestStateString(t *testing.T) {
	if OK.String() != "ok" || Throttled.String() != "throttled" || Shutdown.String() != "shutdown" {
		t.Fatal("state names")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should render")
	}
}
