package fio

import (
	"math"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

func newRig(t *testing.T) (*Runner, *hdd.Drive, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 5)
	if err != nil {
		t.Fatal(err)
	}
	return NewRunner(blockdev.NewDisk(drive), clock), drive, clock
}

func TestPatternStrings(t *testing.T) {
	cases := map[Pattern]string{
		SeqRead: "read", SeqWrite: "write", RandRead: "randread", RandWrite: "randwrite",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern should still render")
	}
	if !SeqWrite.IsWrite() || SeqRead.IsWrite() {
		t.Error("IsWrite misbehaves")
	}
	if !RandRead.IsRandom() || SeqRead.IsRandom() {
		t.Error("IsRandom misbehaves")
	}
}

func TestJobValidate(t *testing.T) {
	dev := int64(1 << 40)
	good := PaperJob(SeqRead, time.Second)
	if err := good.Validate(dev); err != nil {
		t.Fatal(err)
	}
	bad := []Job{
		{Pattern: SeqRead, BlockSize: 0, Span: 1 << 20, Runtime: time.Second},
		{Pattern: SeqRead, BlockSize: 4096, Span: 1024, Runtime: time.Second},
		{Pattern: SeqRead, BlockSize: 4096, Span: 1 << 20, Offset: -1, Runtime: time.Second},
		{Pattern: SeqRead, BlockSize: 4096, Span: 1 << 20, Offset: dev, Runtime: time.Second},
		{Pattern: SeqRead, BlockSize: 4096, Span: 1 << 20},
	}
	for i, j := range bad {
		if err := j.Validate(dev); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNoAttackThroughputMatchesPaperTable1(t *testing.T) {
	// Paper Table 1, "No Attack": read 18.0 MB/s, write 22.7 MB/s,
	// latency 0.2 ms for both.
	for _, tc := range []struct {
		p       Pattern
		wantMB  float64
		wantLat float64 // ms
	}{
		{SeqRead, 18.0, 0.2},
		{SeqWrite, 22.7, 0.2},
	} {
		r, _, _ := newRig(t)
		res, err := r.Run(PaperJob(tc.p, 2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.ThroughputMBps(); math.Abs(got-tc.wantMB)/tc.wantMB > 0.08 {
			t.Errorf("%v: throughput = %.1f MB/s, want ≈%.1f", tc.p, got, tc.wantMB)
		}
		if got := res.Latencies.Mean.Seconds() * 1000; math.Abs(got-tc.wantLat) > 0.1 {
			t.Errorf("%v: mean latency = %.2f ms, want ≈%.1f", tc.p, got, tc.wantLat)
		}
		if res.NoResponse {
			t.Errorf("%v: unexpected NoResponse", tc.p)
		}
		if res.Errors != 0 {
			t.Errorf("%v: unexpected errors %d", tc.p, res.Errors)
		}
	}
}

func TestHeavyAttackGivesNoResponse(t *testing.T) {
	// Paper Table 1 at 1 cm: zero throughput, no latency measurable.
	r, drive, _ := newRig(t)
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.4})
	res, err := r.Run(PaperJob(SeqWrite, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !res.NoResponse {
		t.Fatalf("expected NoResponse, got %d ops", res.Ops)
	}
	if res.ThroughputMBps() != 0 {
		t.Fatalf("throughput = %v, want 0", res.ThroughputMBps())
	}
	if res.Errors == 0 {
		t.Fatal("expected failed requests to be counted")
	}
}

func TestModerateAttackDegradesWritesMoreThanReads(t *testing.T) {
	amp := 0.2 // between write (0.15) and read (0.26) thresholds
	run := func(p Pattern) Result {
		r, drive, _ := newRig(t)
		drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: amp})
		res, err := r.Run(PaperJob(p, 2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	read := run(SeqRead)
	write := run(SeqWrite)
	if write.ThroughputMBps() >= read.ThroughputMBps() {
		t.Fatalf("write %.1f MB/s should degrade below read %.1f MB/s",
			write.ThroughputMBps(), read.ThroughputMBps())
	}
	if write.ThroughputMBps() >= 22.7*0.8 {
		t.Fatalf("write throughput %.1f should be visibly degraded", write.ThroughputMBps())
	}
}

func TestRandomPatternsSlower(t *testing.T) {
	r, _, _ := newRig(t)
	seqRes, err := r.Run(PaperJob(SeqRead, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	r2, _, _ := newRig(t)
	rnd := PaperJob(RandRead, time.Second)
	rndRes, err := r2.Run(rnd)
	if err != nil {
		t.Fatal(err)
	}
	if rndRes.ThroughputMBps() >= seqRes.ThroughputMBps()/5 {
		t.Fatalf("random read %.2f MB/s should be much slower than sequential %.2f",
			rndRes.ThroughputMBps(), seqRes.ThroughputMBps())
	}
}

func TestIOPSAndThroughputConsistent(t *testing.T) {
	r, _, _ := newRig(t)
	res, err := r.Run(PaperJob(SeqRead, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	wantIOPS := res.ThroughputMBps() * 1e6 / 4096
	if math.Abs(res.IOPS()-wantIOPS)/wantIOPS > 0.01 {
		t.Fatalf("IOPS %v inconsistent with throughput-derived %v", res.IOPS(), wantIOPS)
	}
}

func TestLatencySummary(t *testing.T) {
	s := summarize([]time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond})
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Mean != 2500*time.Microsecond {
		t.Fatalf("mean = %v", s.Mean)
	}
	if s.Max != 4*time.Millisecond {
		t.Fatalf("max = %v", s.Max)
	}
	if s.P50 != 2*time.Millisecond {
		t.Fatalf("p50 = %v", s.P50)
	}
	if got := summarize(nil); got.Count != 0 || got.Mean != 0 {
		t.Fatalf("empty summary = %+v", got)
	}
}

func TestPercentilesNearestRankSmallN(t *testing.T) {
	// Regression: with n=10 distinct samples, a truncating index put P99
	// at the 9th value instead of the max. Nearest-rank (ceil(q·n)) must
	// return the max for any q > 0.9 at n=10.
	samples := make([]time.Duration, 10)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(samples)
	if s.P99 != 10*time.Millisecond {
		t.Fatalf("P99 of 1..10ms = %v, want 10ms (nearest rank)", s.P99)
	}
	if s.P50 != 5*time.Millisecond {
		t.Fatalf("P50 of 1..10ms = %v, want 5ms", s.P50)
	}
	// n=1: every percentile is that sample.
	one := summarize([]time.Duration{7 * time.Millisecond})
	if one.P50 != 7*time.Millisecond || one.P99 != 7*time.Millisecond {
		t.Fatalf("n=1 percentiles = %+v", one)
	}
}

func TestErrorLatenciesRecorded(t *testing.T) {
	// Regression: failed ops consume virtual time but used to vanish
	// from the latency accounting entirely.
	r, drive, _ := newRig(t)
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.4})
	res, err := r.Run(PaperJob(SeqWrite, 2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("expected failed requests under a heavy attack")
	}
	if res.ErrorLatencies.Count != res.Errors {
		t.Fatalf("ErrorLatencies.Count = %d, want %d (one sample per failed op)",
			res.ErrorLatencies.Count, res.Errors)
	}
	if res.ErrorLatencies.Mean <= 0 || res.ErrorLatencies.Max < res.ErrorLatencies.P50 {
		t.Fatalf("implausible error-latency summary: %+v", res.ErrorLatencies)
	}
	if res.Latencies.Count != 0 {
		t.Fatalf("no ops completed, but Latencies.Count = %d", res.Latencies.Count)
	}
}

func TestZeroElapsedResultAccessors(t *testing.T) {
	var r Result
	if r.ThroughputMBps() != 0 || r.IOPS() != 0 {
		t.Fatal("zero result accessors must return 0")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		r, drive, _ := newRig(t)
		drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.18})
		res, err := r.Run(PaperJob(SeqWrite, time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.Errors != b.Errors || a.Bytes != b.Bytes {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
