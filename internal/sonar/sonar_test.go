package sonar

import (
	"math"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/acoustics"
	"deepnote/internal/cluster"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func testLayout() cluster.Layout {
	return cluster.LineLayout(6, 2*units.Meter)
}

func testArray(t *testing.T) Array {
	t.Helper()
	a := FacilityArray(testLayout(), 6, 3*units.Meter)
	if err := a.Validate(); err != nil {
		t.Fatalf("array invalid: %v", err)
	}
	return a
}

// TestLocateRecoversPosition places a source at known positions across
// ranges and depths and checks the fix lands within tolerance — and that
// the solver's own error radius is an honest (same order) accounting.
func TestLocateRecoversPosition(t *testing.T) {
	a := testArray(t)
	tone := sig.NewTone(650 * units.Hz)
	cases := []struct {
		name     string
		pos      cluster.Vec3
		minUsed  int
		planarOK bool
	}{
		{"point-blank-ct0", cluster.Vec3{X: 0.01}, 6, false},
		{"between-containers", cluster.Vec3{X: 5, Y: 0.5}, 6, false},
		// Past the hydrophone ring the far elements drop below the SNR
		// threshold: the fix survives on the near arc — depth becomes
		// unobservable there, so the planar fallback is acceptable.
		{"outside-ring", cluster.Vec3{X: 14, Y: 3}, 4, true},
		{"deep", cluster.Vec3{X: 5, Y: 1, Z: -4}, 6, false},
		{"shallow", cluster.Vec3{X: 2, Y: -2, Z: 1.5}, 6, false},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := a.Receive(tc.pos, tone, int64(100+i))
			est, err := a.Locate(recs)
			if err != nil {
				t.Fatalf("Locate: %v", err)
			}
			miss := est.Pos.Sub(tc.pos).Norm()
			if est.ErrRadius <= 0 {
				t.Fatalf("ErrRadius = %v, want > 0", est.ErrRadius)
			}
			// Timing sigma at these SNRs is ~20-70 µs → decimeter-scale
			// range errors; weak-geometry axes are covered by the fix's
			// own covariance-derived error radius.
			if miss > 0.75+3*float64(est.ErrRadius) {
				t.Fatalf("fix missed true position by %.3f m with error radius %v (est %+v, true %+v)",
					miss, est.ErrRadius, est.Pos, tc.pos)
			}
			if hmiss := math.Hypot(est.Pos.X-tc.pos.X, est.Pos.Y-tc.pos.Y); hmiss > 0.75 {
				t.Fatalf("fix missed horizontally by %.3f m (est %+v, true %+v)", hmiss, est.Pos, tc.pos)
			}
			if est.Used < tc.minUsed {
				t.Fatalf("Used = %d, want >= %d", est.Used, tc.minUsed)
			}
			if est.Planar && !tc.planarOK {
				t.Fatalf("planar fallback with %d detections", est.Used)
			}
		})
	}
}

// TestLocateDegradesGracefully drops the array down to 3 and then 2
// detecting elements: 3 must still produce a (planar) fix, 2 must error
// rather than fabricate one.
func TestLocateDegradesGracefully(t *testing.T) {
	a := testArray(t)
	tone := sig.NewTone(650 * units.Hz)
	truth := cluster.Vec3{X: 5, Y: 0.5}
	recs := a.Receive(truth, tone, 7)

	three := recs[:3]
	est, err := a.Locate(three)
	if err != nil {
		t.Fatalf("Locate with 3 elements: %v", err)
	}
	if !est.Planar {
		t.Fatalf("3-element fix not flagged Planar")
	}
	if est.Used != 3 {
		t.Fatalf("Used = %d, want 3", est.Used)
	}
	// Horizontal miss only: depth was constrained, not estimated.
	dx, dy := est.Pos.X-truth.X, est.Pos.Y-truth.Y
	if miss := math.Hypot(dx, dy); miss > 2 {
		t.Fatalf("planar fix missed horizontally by %.3f m", miss)
	}

	if _, err := a.Locate(recs[:2]); err == nil {
		t.Fatalf("Locate with 2 elements succeeded, want error")
	}
	if _, err := a.Locate(nil); err == nil {
		t.Fatalf("Locate with no receptions succeeded, want error")
	}
}

// TestReceiveSNRFallsWithRange checks the physics wiring: farther
// hydrophones hear less, and a source far beyond the detection horizon
// is not detected at all.
func TestReceiveSNRFallsWithRange(t *testing.T) {
	a := testArray(t)
	tone := sig.NewTone(650 * units.Hz)
	near := a.Receive(a.Hydrophones[0].Pos, tone, 1)
	if !near[0].Detected {
		t.Fatalf("co-located source not detected")
	}
	for i := 1; i < len(near); i++ {
		if near[i].SNRdB >= near[0].SNRdB {
			t.Fatalf("hydrophone %d (farther) SNR %.1f ≥ co-located SNR %.1f", i, near[i].SNRdB, near[0].SNRdB)
		}
	}

	// 140 dB re 1µPa at 1 cm over a 70 dB floor dies into the noise at
	// tens of meters; 5 km is far past any detection horizon.
	far := a.Receive(cluster.Vec3{X: 5000}, tone, 1)
	for _, r := range far {
		if r.Detected {
			t.Fatalf("hydrophone %d detected a source 5 km away (SNR %.1f dB)", r.Hydrophone, r.SNRdB)
		}
	}
}

// TestDetectScheduleDeterministic runs the same staged schedule twice and
// checks the detection timeline is identical — the property
// TestGoldenOutputs in cmd/deepnote leans on for its sonar row.
func TestDetectScheduleDeterministic(t *testing.T) {
	lay := testLayout().WithSpeakersAt(sig.NewTone(650*units.Hz), 0, 1, 2)
	a := FacilityArray(lay, 6, 3*units.Meter)
	steps := []cluster.ScheduleStep{
		{At: 100 * time.Millisecond, Active: []bool{true, false, false}},
		{At: 400 * time.Millisecond, Active: []bool{true, true, false}},
		{At: 700 * time.Millisecond, Active: []bool{true, true, true}},
	}
	d1 := DetectSchedule(lay, a, steps, 42)
	d2 := DetectSchedule(lay, a, steps, 42)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatalf("DetectSchedule not deterministic")
	}
	if len(d1) != 3 {
		t.Fatalf("got %d detections, want 3 (one per key-on)", len(d1))
	}
	for i, d := range d1 {
		if d.Speaker != i {
			t.Fatalf("detection %d localized speaker %d", i, d.Speaker)
		}
		if !d.OK {
			t.Fatalf("key-on %d produced no fix", i)
		}
		if d.Latency < processingWindow {
			t.Fatalf("latency %v below one processing window %v", d.Latency, processingWindow)
		}
		miss := d.Est.Pos.Sub(lay.Speakers[i].Pos).Norm()
		if miss > 0.75 {
			t.Fatalf("key-on %d fix missed by %.3f m", i, miss)
		}
	}

	// A different seed must change the noise draws but not detectability.
	d3 := DetectSchedule(lay, a, steps, 43)
	if reflect.DeepEqual(d1, d3) {
		t.Fatalf("seed had no effect on detection timeline")
	}
	for i := range d3 {
		if !d3[i].OK {
			t.Fatalf("seed 43 key-on %d produced no fix", i)
		}
	}
}

// TestDetectScheduleReKeying checks an all-silent step resets speaker
// state so a re-key is a fresh detection event.
func TestDetectScheduleReKeying(t *testing.T) {
	lay := testLayout().WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
	a := FacilityArray(lay, 6, 3*units.Meter)
	steps := []cluster.ScheduleStep{
		{At: 100 * time.Millisecond, Active: []bool{true}},
		{At: 300 * time.Millisecond}, // key off
		{At: 500 * time.Millisecond, Active: []bool{true}},
	}
	dets := DetectSchedule(lay, a, steps, 9)
	if len(dets) != 2 {
		t.Fatalf("got %d detections, want 2 (re-key counts)", len(dets))
	}
	if dets[0].KeyOn != 100*time.Millisecond || dets[1].KeyOn != 500*time.Millisecond {
		t.Fatalf("key-on times %v, %v", dets[0].KeyOn, dets[1].KeyOn)
	}
}

// TestReceiveLevelDelegation pins the refactor that opened the reception
// path to arbitrary sources (the exfil channel's drive-tray emissions):
// Receive must remain byte-identical to ReceiveLevel fed the attack
// chain's own hardware parameters, and a quieter source through the same
// path must lose SNR, not gain it.
func TestReceiveLevelDelegation(t *testing.T) {
	a := testArray(t)
	pos := cluster.Vec3{X: 5, Y: 1, Z: 2}
	tone := sig.Tone{Freq: 780 * units.Hz, Amplitude: 0.9}
	const seed = 99

	driven := acoustics.BG2120().Drive(tone)
	spk := acoustics.AQ339()
	want := a.Receive(pos, tone, seed)
	got := a.ReceiveLevel(pos, driven.Freq, spk.SourceLevel(driven), spk.RefDist, seed)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Receive diverged from its ReceiveLevel delegation:\n%+v\nvs\n%+v", want, got)
	}

	quiet := a.ReceiveLevel(pos, driven.Freq, spk.SourceLevel(driven).Add(-30), spk.RefDist, seed)
	for i := range quiet {
		if quiet[i].SNRdB >= want[i].SNRdB {
			t.Errorf("hydrophone %d: 30 dB quieter source did not lose SNR (%v vs %v)", i, quiet[i].SNRdB, want[i].SNRdB)
		}
	}
}
