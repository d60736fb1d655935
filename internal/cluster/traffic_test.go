package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func buildServing(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWriteOnlyWorkload is the ReadFraction-zero regression test: an
// explicit Ptr(0.0) must mean "no reads", not "use the 0.9 default" —
// the bug the pointer field fixed.
func TestWriteOnlyWorkload(t *testing.T) {
	c := buildServing(t, testConfig(0))
	res, err := c.Serve(TrafficSpec{Requests: 80, Rate: 2000, ReadFraction: Ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets != 0 {
		t.Fatalf("write-only workload executed %d GETs, want 0", res.Gets)
	}
	if res.Puts != 80 || res.ShardReads != 0 {
		t.Fatalf("write-only workload: Puts=%d ShardReads=%d, want 80 and 0", res.Puts, res.ShardReads)
	}
}

// TestReadOnlyWorkload: the other endpoint of the valid range.
func TestReadOnlyWorkload(t *testing.T) {
	c := buildServing(t, testConfig(0))
	res, err := c.Serve(TrafficSpec{Requests: 80, Rate: 2000, ReadFraction: Ptr(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts != 0 || res.Gets != 80 {
		t.Fatalf("read-only workload: Gets=%d Puts=%d, want 80 and 0", res.Gets, res.Puts)
	}
}

// TestReadFractionOutOfRangeRejected: fractions outside [0, 1], and NaN,
// are configuration errors, not clamped or silently defaulted.
func TestReadFractionOutOfRangeRejected(t *testing.T) {
	c := buildServing(t, testConfig(0))
	for _, rf := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := c.Serve(TrafficSpec{Requests: 10, ReadFraction: Ptr(rf)}); err == nil {
			t.Fatalf("ReadFraction %v accepted, want error", rf)
		}
	}
}

// TestSeedZeroReproduces is the Seed-zero regression test: an explicit
// zero seed (cluster and traffic) is honored and reproduces exactly,
// instead of being treated as "unset" and overridden.
func TestSeedZeroReproduces(t *testing.T) {
	run := func() ServeResult {
		cfg := testConfig(0)
		cfg.Seed = Ptr(int64(0))
		cfg.Layout = cfg.Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
		c := buildServing(t, cfg)
		c.SetSchedule([]ScheduleStep{{At: 0, Active: []bool{true}}})
		spec := testTraffic()
		spec.Seed = Ptr(int64(0))
		res, err := c.Serve(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Seed 0 did not reproduce:\n%+v\nvs\n%+v", a, b)
	}
	// And seed zero must actually be a distinct stream, not the default.
	cfg := testConfig(0)
	c := buildServing(t, cfg) // default seed 1
	spec := testTraffic()
	spec.Requests = 2000
	base, err := c.Serve(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = Ptr(int64(0))
	zero, err := c.Serve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.Puts == zero.Puts && base.P50 == zero.P50 && base.Max == zero.Max {
		t.Fatal("explicit Seed 0 produced the default-seed stream; zero is being treated as unset")
	}
}

// TestArrivalStrictlyMonotoneAt1e8 pins the integer-nanosecond arrival
// fix: at 10^8 requests the old float64(i)/rate*1e9 computation crosses
// 2^53 and starts emitting non-increasing arrivals; the int64 path must
// stay strictly monotone all the way.
func TestArrivalStrictlyMonotoneAt1e8(t *testing.T) {
	const n = 100_000_000
	const rate = 1e6
	prev := ArrivalNS(0, rate)
	if prev != 0 {
		t.Fatalf("arrival(0) = %d, want 0", prev)
	}
	for i := 1; i <= n; i++ {
		at := ArrivalNS(i, rate)
		if at <= prev {
			t.Fatalf("arrival(%d) = %d not after arrival(%d) = %d", i, at, i-1, prev)
		}
		prev = at
	}
	// The exact-rate path is exact: request i arrives at i/rate seconds.
	if got := ArrivalNS(n, rate); got != int64(n/rate)*int64(time.Second) {
		t.Fatalf("arrival(%d) = %d, want %d", n, got, int64(n/rate)*int64(time.Second))
	}
}

// TestArrivalMonotoneFractionalRate: the float fallback for non-integral
// rates must still be nondecreasing.
func TestArrivalMonotoneFractionalRate(t *testing.T) {
	for _, rate := range []float64{0.5, 3.7, 2499.5} {
		prev := int64(-1)
		for i := 0; i < 200_000; i++ {
			at := ArrivalNS(i, rate)
			if at < prev {
				t.Fatalf("rate %v: arrival(%d) = %d below arrival(%d) = %d", rate, i, at, i-1, prev)
			}
			prev = at
		}
	}
}

// TestCachedTransferMatchesDirect is the differential gate for the
// transfer-function cache: for every drive, schedule step, and active
// mask, the vibration superposed from cached per-(speaker, drive) gains
// must equal the direct per-op chain walk (Layout.VibrationAt)
// bit-for-bit, across a grid of attack tones spanning the drive's
// response bands.
func TestCachedTransferMatchesDirect(t *testing.T) {
	for _, freq := range []units.Frequency{120 * units.Hz, 650 * units.Hz, 1700 * units.Hz, 3000 * units.Hz, 5200 * units.Hz} {
		cfg := testConfig(0)
		cfg.DrivesPerContainer = 2
		// Mixed tones: three speakers at the grid frequency, one detuned,
		// so superposition exercises both coherent adds and partials.
		cfg.Layout = cfg.Layout.WithSpeakersAt(sig.NewTone(freq), 0, 1, 2, 3)
		cfg.Layout.Speakers[3].Tone = sig.NewTone(freq + 37*units.Hz)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		masks := [][]bool{
			nil, // direct-path convention: nil = all on
			{true, false, false, false},
			{false, true, true, false},
			{true, true, true, true},
			{false, false, false, true},
		}
		for mi, mask := range masks {
			stepMask := mask
			if stepMask == nil {
				stepMask = []bool{true, true, true, true} // SetSchedule: nil = all off
			}
			c.SetSchedule([]ScheduleStep{{At: 0, Active: stepMask}})
			for di, d := range c.drives.Stacks {
				want := cfg.Layout.VibrationAt(d.Container, d.asm, c.drives.model, stepMask)
				got := c.drives.sites[0].vibs[0][di]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("freq %v mask %d drive %d: cached vibration %+v != direct %+v",
						freq, mi, di, got, want)
				}
			}
		}
	}
}
