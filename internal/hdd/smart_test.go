package hdd

import (
	"testing"
)

func TestSMARTHealthyDrive(t *testing.T) {
	d, _ := newTestDrive(t)
	var off int64
	for i := 0; i < 100; i++ {
		d.Access(OpWrite, off, 4096)
		off += 4096
	}
	if !d.SMARTHealthy() {
		t.Fatal("healthy drive failing SMART")
	}
	attrs := d.SMART()
	byName := func(name string) SMARTAttribute {
		for _, a := range attrs {
			if a.Name == name {
				return a
			}
		}
		t.Fatalf("attribute %q missing", name)
		return SMARTAttribute{}
	}
	if byName("Power_On_Ops").Value != 100 {
		t.Fatalf("ops = %d", byName("Power_On_Ops").Value)
	}
	if byName("Total_LBAs_Written").Value != 100*4096/512 {
		t.Fatalf("LBAs written = %d", byName("Total_LBAs_Written").Value)
	}
	if byName("Command_Timeout").Value != 0 {
		t.Fatal("healthy drive should have no timeouts")
	}
}

func TestSMARTUnderAttackShowsFingerprint(t *testing.T) {
	d, _ := newTestDrive(t)
	var off int64
	for i := 0; i < 100; i++ {
		d.Access(OpWrite, off, 4096)
		off += 4096
	}
	d.SetVibration(Vibration{Freq: 650, Amplitude: 0.2})
	for i := 0; i < 300; i++ {
		d.Access(OpWrite, off, 4096)
		off += 4096
	}
	attrs := d.SMART()
	var servo SMARTAttribute
	for _, a := range attrs {
		if a.Name == "Servo_Retries_Per_1k_Ops" {
			servo = a
		}
	}
	if servo.Value < 100 {
		t.Fatalf("servo retry rate = %d per 1k ops, want inflated", servo.Value)
	}
}

func TestSMARTFailsAfterSustainedTimeouts(t *testing.T) {
	d, _ := newTestDrive(t)
	d.SetVibration(Vibration{Freq: 650, Amplitude: 2.3})
	var off int64
	for i := 0; i < 120; i++ {
		d.Access(OpWrite, off, 4096)
		off += 4096
	}
	if d.SMARTHealthy() {
		t.Fatal("120 command timeouts should cross the SMART threshold")
	}
	for _, a := range d.SMART() {
		if a.Name == "Command_Timeout" {
			if !a.Failing {
				t.Fatalf("command timeout attribute: %+v", a)
			}
		}
	}
}

func TestZonedRecordingRates(t *testing.T) {
	m := Barracuda500()
	outer := m.MediaRateAt(0)
	inner := m.MediaRateAt(m.CapacityBytes)
	if outer != m.MediaRateBps {
		t.Fatalf("outer rate = %v", outer)
	}
	if inner >= outer*0.6 || inner <= outer*0.5 {
		t.Fatalf("inner rate = %v, want ≈55%% of outer", inner)
	}
	mid := m.MediaRateAt(m.CapacityBytes / 2)
	if mid <= inner || mid >= outer {
		t.Fatal("mid-disk rate not between zones")
	}
	flat := m
	flat.InnerRateFraction = 0
	if flat.MediaRateAt(flat.CapacityBytes) != flat.MediaRateBps {
		t.Fatal("zoning disabled should be flat")
	}
}

func TestInnerTracksSlowerEndToEnd(t *testing.T) {
	d, clock := newTestDrive(t)
	run := func(base int64) float64 {
		start := clock.Now()
		off := base
		for i := 0; i < 500; i++ {
			if res := d.Access(OpRead, off, 4096); res.Err != nil {
				t.Fatal(res.Err)
			}
			off += 4096
		}
		return 500 * 4096 / clock.Now().Sub(start).Seconds() / 1e6
	}
	outer := run(0)
	inner := run(d.Capacity() - 500*4096 - 4096)
	if inner >= outer {
		t.Fatalf("inner zone %.1f MB/s should be slower than outer %.1f", inner, outer)
	}
}
