package cluster

import (
	"reflect"
	"testing"
	"time"

	"deepnote/internal/parallel"
	"deepnote/internal/sched"
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

// TestDrainStartsAtArrivalOrDriveTime pins the drain rule: an op starts
// at max(arrival, the drive's current time), so the clock never rewinds
// for an op that arrived while the drive was busy, and ops at equal
// times dispatch in issue order.
func TestDrainStartsAtArrivalOrDriveTime(t *testing.T) {
	d := twoSiteDrives(t)
	if err := d.Preload(func(o, j int) int { return (o + j) % len(d.Stacks) }); err != nil {
		t.Fatal(err)
	}
	const di = 3
	q := &d.Stacks[di].Queue
	q.Push(100, 0)
	q.Push(50, 1)
	q.Push(150, 2)
	q.Push(150, 3) // same time as op 2, issued later
	type start struct {
		id uint64
		at int64
	}
	var got []start
	err := d.Drain(func(i int, it sched.Item) {
		if i != di {
			t.Errorf("drive %d dispatched op %d; only drive %d has ops", i, it.ID, di)
			return
		}
		got = append(got, start{it.ID, d.Offset(i)})
		// Ops 1 and 2 keep the drive busy past the next arrival.
		switch it.ID {
		case 1:
			d.Stacks[i].clock.Sleep(80)
		case 2:
			d.Stacks[i].clock.Sleep(20)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []start{{1, 50}, {0, 130}, {2, 150}, {3, 170}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch (op, start offset) = %v, want %v", got, want)
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
