package experiment

import (
	"strings"
	"testing"

	"deepnote/internal/core"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

func TestUltrasonicVectorUnreachableThroughEnclosure(t *testing.T) {
	// The paper's sweep to 16.9 kHz saw no shock-sensor parking; the
	// model explains it: wall attenuation crushes ultrasonic excitation
	// far below the sensor threshold in every scenario.
	for _, s := range []core.Scenario{core.Scenario1, core.Scenario2, core.Scenario3} {
		rows, err := Ultrasonic(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatal("no rows")
		}
		for _, r := range rows {
			if r.Parks {
				t.Errorf("%v: %v parks the heads through the enclosure — should be unreachable", s, r.Freq)
			}
			if r.Amplitude >= r.SensorThreshold {
				t.Errorf("%v: %v excitation %.4f above sensor threshold", s, r.Freq, r.Amplitude)
			}
		}
		rep := UltrasonicReport(s, rows).String()
		if !strings.Contains(rep, "Heads park") {
			t.Fatalf("report rendering:\n%s", rep)
		}
	}
}

func TestShockSensorStillWorksWithDirectExcitation(t *testing.T) {
	// The sensor itself functions: direct excitation (no enclosure, e.g.
	// a transducer clamped to the drive) parks the heads, so the
	// negative result above is about the acoustic path, not a dead
	// model feature.
	clock := simclock.NewVirtual()
	d, err := hdd.NewDrive(hdd.Barracuda500(), clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetVibration(hdd.Vibration{Freq: 20000, Amplitude: 0.1})
	reg := metrics.NewRegistry()
	d.PublishMetrics(reg)
	if reg.Counter("hdd.shock_parks").Value() != 1 {
		t.Fatal("direct ultrasonic excitation should park the heads")
	}
}
