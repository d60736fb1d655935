package oracle

import (
	"math"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/fio"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// TestPerAttemptMatchesMonteCarlo checks the quadrature against the
// drive simulator at a single-chunk operating point: the fraction of 4 KiB
// accesses that complete on their first positioning attempt is a
// Monte-Carlo estimate of the per-attempt success probability.
func TestPerAttemptMatchesMonteCarlo(t *testing.T) {
	m := hdd.Barracuda500()
	for _, tc := range []struct {
		name string
		vib  hdd.Vibration
		op   hdd.Op
	}{
		{"write transition", hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.17}, hdd.OpWrite},
		{"read transition", hdd.Vibration{Freq: 900 * units.Hz, Amplitude: 0.28}, hdd.OpRead},
		{"low freq", hdd.Vibration{Freq: 200 * units.Hz, Amplitude: 0.16}, hdd.OpWrite},
		{"jitter only", hdd.Vibration{ExtraJitter: 0.05}, hdd.OpWrite},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pred, err := Predict(Input{Model: m, Vib: tc.vib, Op: tc.op, BlockSize: hdd.ChunkBytes})
			if err != nil {
				t.Fatal(err)
			}
			d, err := hdd.NewDrive(m, simclock.NewVirtual(), 3)
			if err != nil {
				t.Fatal(err)
			}
			d.SetVibration(tc.vib)
			const trials = 40000
			firstTry := 0
			for i := 0; i < trials; i++ {
				if res := d.Access(tc.op, 0, hdd.ChunkBytes); res.Err == nil && res.Retries == 0 {
					firstTry++
				}
			}
			mc := float64(firstTry) / trials
			if diff := math.Abs(pred.PerAttempt - mc); diff > 0.02 {
				t.Fatalf("per-attempt success: analytic %.4f vs simulated %.4f (diff %.4f)", pred.PerAttempt, mc, diff)
			}
		})
	}
}

// TestOpSuccessIsChunkProduct pins the multi-chunk composition law: a
// 64 KiB op at uniform excitation succeeds iff all 16 chunks do.
func TestOpSuccessIsChunkProduct(t *testing.T) {
	m := hdd.Barracuda500()
	vib := hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.10, ExtraJitter: 0.030}
	single, err := Predict(Input{Model: m, Vib: vib, Op: hdd.OpWrite, BlockSize: hdd.ChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Predict(Input{Model: m, Vib: vib, Op: hdd.OpWrite, BlockSize: 16 * hdd.ChunkBytes})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(1-single.ChunkFail, 16)
	if diff := math.Abs(multi.OpSuccess - want); diff > 1e-9 {
		t.Fatalf("16-chunk op success %.6f, want product of chunk successes %.6f", multi.OpSuccess, want)
	}
}

// TestQuietThroughputMatchesSimulator anchors the latency model: with no
// excitation there are no retries and no failures, so predicted throughput
// must match a quiet fio run almost exactly.
func TestQuietThroughputMatchesSimulator(t *testing.T) {
	m := hdd.Barracuda500()
	for _, op := range []hdd.Op{hdd.OpWrite, hdd.OpRead} {
		pred, err := Predict(Input{Model: m, Vib: hdd.Quiet(), Op: op, BlockSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		clock := simclock.NewVirtual()
		drive, err := hdd.NewDrive(m, clock, 1)
		if err != nil {
			t.Fatal(err)
		}
		pattern := fio.SeqRead
		if op == hdd.OpWrite {
			pattern = fio.SeqWrite
		}
		res, err := fio.NewRunner(blockdev.NewDisk(drive), clock).Run(fio.Job{
			Name: "quiet", Pattern: pattern, BlockSize: 4096,
			Span: 1 << 30, Runtime: time.Second, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim := res.ThroughputMBps()
		if diff := math.Abs(pred.ThroughputMBps-sim) / sim; diff > 0.02 {
			t.Fatalf("%v quiet throughput: predicted %.2f MB/s vs simulated %.2f MB/s", op, pred.ThroughputMBps, sim)
		}
	}
}

// TestRetryStatsTruncatedGeometric checks the retry process math against
// first principles at exactly computable points.
func TestRetryStatsTruncatedGeometric(t *testing.T) {
	// p = 1: never retries, never fails.
	if fail, r := retryStats(1, 8); fail != 0 || r != 0 {
		t.Fatalf("p=1: fail=%v retries=%v", fail, r)
	}
	// p = 0: always fails.
	if fail, _ := retryStats(0, 8); fail != 1 {
		t.Fatalf("p=0: fail=%v", fail)
	}
	// p = 0.5, budget 1: fail = 0.25; E[k|success] = (0·0.5 + 1·0.25)/0.75.
	fail, r := retryStats(0.5, 1)
	if math.Abs(fail-0.25) > 1e-12 {
		t.Fatalf("fail = %v, want 0.25", fail)
	}
	if want := 0.25 / 0.75; math.Abs(r-want) > 1e-12 {
		t.Fatalf("E[retries|success] = %v, want %v", r, want)
	}
}

// TestPredictRejectsBadInputs covers the input validation surface.
func TestPredictRejectsBadInputs(t *testing.T) {
	m := hdd.Barracuda500()
	if _, err := Predict(Input{Model: m, Op: hdd.OpRead, BlockSize: 0}); err == nil {
		t.Fatal("zero block size must be rejected")
	}
	if _, err := Predict(Input{Model: m, Op: hdd.OpRead, Offset: m.CapacityBytes, BlockSize: 4096}); err == nil {
		t.Fatal("out-of-capacity access must be rejected")
	}
}

// TestInnerOffsetPredictedMoreVulnerable pins the zoned physics in the
// predictor itself: equal excitation, inner offset, lower success.
func TestInnerOffsetPredictedMoreVulnerable(t *testing.T) {
	m := hdd.Barracuda500()
	vib := hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.18}
	outer, err := Predict(Input{Model: m, Vib: vib, Op: hdd.OpWrite, Offset: 0, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := Predict(Input{Model: m, Vib: vib, Op: hdd.OpWrite, Offset: m.CapacityBytes - 4096, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if inner.PerAttempt >= outer.PerAttempt {
		t.Fatalf("inner-track attempts must be less likely to hold: inner %.4f, outer %.4f", inner.PerAttempt, outer.PerAttempt)
	}
}
