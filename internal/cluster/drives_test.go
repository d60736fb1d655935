package cluster

import (
	"math"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// twoSiteDrives builds a substrate over two differently sized sites, the
// shape the fleet tier uses; only site 1 has speakers.
func twoSiteDrives(t *testing.T) *Drives {
	t.Helper()
	coder, err := NewCoder(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	loud := LineLayout(4, 2*units.Meter).WithSpeakersAt(sig.NewTone(650*units.Hz), 0, 1)
	d, err := NewDrives(DriveSpec{
		Sites:        []Layout{LineLayout(3, 2*units.Meter), loud},
		PerContainer: 2,
		Coder:        coder,
		Objects:      6,
		ObjectSize:   4 << 10,
		Seed:         5,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDrivesStackOrder pins the substrate's construction order (site →
// container → slot) and per-site ranges: drive seeds derive from the
// stack index, so this order is what keeps both tiers' outputs stable.
func TestDrivesStackOrder(t *testing.T) {
	d := twoSiteDrives(t)
	if len(d.Stacks) != (3+4)*2 {
		t.Fatalf("%d stacks, want 14", len(d.Stacks))
	}
	for s, want := range [][2]int{{0, 6}, {6, 8}} {
		if base, size := d.Site(s); base != want[0] || size != want[1] {
			t.Fatalf("site %d = (%d, %d), want %v", s, base, size, want)
		}
	}
	for i, st := range d.Stacks {
		site, ct := 0, i/2
		if i >= 6 {
			site, ct = 1, (i-6)/2
		}
		if st.Site != site || st.Container != ct {
			t.Fatalf("stack %d = site %d container %d, want %d/%d", i, st.Site, st.Container, site, ct)
		}
		if got, want := st.Server.Config().Seed, parallel.SeedFor(5, 2*i+1); got != want {
			t.Fatalf("stack %d network seed %d, want SeedFor(5, %d)", i, got, 2*i+1)
		}
	}
}

// TestDrivesSiteScheduleIsolated: a site's schedule reaches only that
// site's drives, and the cached vibration equals the direct chain walk.
func TestDrivesSiteScheduleIsolated(t *testing.T) {
	d := twoSiteDrives(t)
	if err := d.Preload(func(o, j int) int { return (o + j) % len(d.Stacks) }); err != nil {
		t.Fatal(err)
	}
	d.SetSchedule(1, []ScheduleStep{{At: 0, Active: []bool{true, true}}})
	loud, excited := d.sites[1].layout, 0
	for di, st := range d.Stacks {
		d.apply(di)
		got := st.drive.Vibration()
		if st.Site == 0 {
			if got.Amplitude != 0 {
				t.Fatalf("drive %d at the silent site vibrates: %+v", di, got)
			}
			continue
		}
		want := loud.VibrationAt(st.Container, st.asm, d.model, []bool{true, true})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("drive %d: cached vibration %+v != direct %+v", di, got, want)
		}
		if got.Amplitude != 0 {
			excited++
		}
	}
	if excited == 0 {
		t.Fatal("no drive at the attacked site vibrates")
	}
}

// TestScheduleApplyAllocFree: the forward-only step apply runs before
// every dispatched op and must not allocate.
func TestScheduleApplyAllocFree(t *testing.T) {
	d := twoSiteDrives(t)
	if err := d.Preload(func(o, j int) int { return (o + j) % len(d.Stacks) }); err != nil {
		t.Fatal(err)
	}
	d.SetSchedule(1, []ScheduleStep{
		{At: time.Millisecond, Active: []bool{true, false}},
		{At: 2 * time.Millisecond, Active: []bool{true, true}},
	})
	di, _ := d.Site(1)
	st := d.Stacks[di]
	st.clock.Sleep(3 * time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		st.stepIdx = -1 // force the scan and the vibration update
		d.apply(di)
	})
	if allocs != 0 {
		t.Fatalf("schedule apply allocates %.1f times per op", allocs)
	}
}

// TestShardOpAllocFree: the shard op both serving tiers dispatch, GET
// checksum included, must not allocate.
func TestShardOpAllocFree(t *testing.T) {
	d := twoSiteDrives(t)
	if err := d.Preload(func(o, j int) int { return (o + j) % len(d.Stacks) }); err != nil {
		t.Fatal(err)
	}
	for _, put := range []bool{false, true} {
		allocs := testing.AllocsPerRun(200, func() {
			if ok, _ := d.ShardOp(1, put, 1, 1, 0); !ok {
				t.Fatalf("put=%v: shard op failed", put)
			}
		})
		if allocs != 0 {
			t.Fatalf("put=%v: ShardOp allocates %.1f times per op", put, allocs)
		}
	}
}

// TestLatencyQuantilesNearestRank: the integer rank (n·p+99)/100 equals
// the float nearest rank ceil(q·n) for every n up to 5000.
func TestLatencyQuantilesNearestRank(t *testing.T) {
	if p50, p99, max := LatencyQuantiles(nil); p50 != 0 || p99 != 0 || max != 0 {
		t.Fatalf("empty: %v %v %v", p50, p99, max)
	}
	const N = 5000
	lat := make([]time.Duration, N)
	for n := 1; n <= N; n++ {
		for i := range lat[:n] {
			lat[i] = time.Duration(n - i) // reversed, so the sort is exercised
		}
		p50, p99, max := LatencyQuantiles(lat[:n])
		rank := func(q float64) time.Duration { return time.Duration(math.Ceil(q * float64(n))) }
		if p50 != rank(0.50) || p99 != rank(0.99) || max != time.Duration(n) {
			t.Fatalf("n=%d: got (%v, %v, %v), want (%v, %v, %v)", n, p50, p99, max, rank(0.50), rank(0.99), n)
		}
	}
}
