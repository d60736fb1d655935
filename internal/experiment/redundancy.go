package experiment

import (
	"fmt"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/core"
	"deepnote/internal/raid"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// Redundancy answers the deployment question the paper's data-center
// framing raises: does RAID protect against an acoustic attack? The
// decisive variable is *placement*. Members sharing the attacked
// enclosure fail together (common mode); members split across enclosures
// — one attacked, one at standoff — keep the array serving.

// RedundancyRow is one (level, placement) cell.
type RedundancyRow struct {
	Level     raid.Level
	Placement string
	// Survived reports whether the array still served I/O through the
	// attack window.
	Survived bool
	// DegradedMembers counts members the array lost.
	DegradedMembers int
	// WriteMBps is the array's write throughput during the attack.
	WriteMBps float64
}

// redundancyRigs builds member rigs on one clock: either all inside the
// attacked container, or split with the second half in a container far
// from the speaker.
func redundancyRigs(n int, split bool, clock *simclock.Virtual, seed int64) ([]*core.Rig, error) {
	rigs := make([]*core.Rig, 0, n)
	for i := 0; i < n; i++ {
		d := 1 * units.Centimeter
		if split && i >= n/2 {
			// The second enclosure sits meters away: spreading alone
			// drops the tone far below every threshold.
			d = 5 * units.Meter
		}
		tb, err := core.NewTestbed(core.Scenario2, d)
		if err != nil {
			return nil, err
		}
		rig, err := core.NewRigWithClock(tb, clock, seed+int64(i))
		if err != nil {
			return nil, err
		}
		rigs = append(rigs, rig)
	}
	return rigs, nil
}

// Redundancy runs the placement × level matrix under a 650 Hz attack.
func Redundancy(seed int64) ([]RedundancyRow, error) {
	type cfg struct {
		level raid.Level
		n     int
		split bool
		name  string
	}
	cases := []cfg{
		{raid.RAID1, 2, false, "mirrors share enclosure"},
		{raid.RAID1, 2, true, "mirrors split across enclosures"},
		{raid.RAID5, 4, false, "stripe set shares enclosure"},
		{raid.RAID5, 4, true, "stripe set split across enclosures"},
	}
	tone := sig.NewTone(650 * units.Hz)
	var rows []RedundancyRow
	for _, c := range cases {
		clock := simclock.NewVirtual()
		rigs, err := redundancyRigs(c.n, c.split, clock, seed)
		if err != nil {
			return nil, err
		}
		devs := make([]blockdev.Device, 0, c.n)
		for _, r := range rigs {
			devs = append(devs, r.Disk)
		}
		arr, err := raid.New(c.level, devs)
		if err != nil {
			return nil, err
		}
		// Attack on: every rig applies the tone through its own path.
		for _, r := range rigs {
			r.ApplyTone(tone)
		}
		row := RedundancyRow{Level: c.level, Placement: c.name}
		buf := make([]byte, 4096)
		// A failed write spends about 1.07 s in drive retries, and the
		// array ejects a member only after raid.FailThreshold failures
		// in a row, so the window must fit several failed writes per
		// member.
		window := 10 * time.Second
		start := clock.Now()
		var bytesOK int64
		var off int64
		survived := true
		for clock.Now().Sub(start) < window {
			if _, err := arr.WriteAt(buf, off%(1<<22)); err != nil {
				survived = false
				// A dead array stops the loop: no progress possible.
				if !arr.Healthy() {
					break
				}
			} else {
				bytesOK += 4096
			}
			off += 4096
		}
		elapsed := clock.Now().Sub(start).Seconds()
		if elapsed > 0 {
			row.WriteMBps = float64(bytesOK) / 1e6 / elapsed
		}
		row.Survived = survived && arr.Healthy()
		row.DegradedMembers = len(arr.FailedMembers())
		rows = append(rows, row)
	}
	return rows, nil
}

// RedundancyReport renders the matrix.
func RedundancyReport(rows []RedundancyRow) *report.Table {
	tb := report.NewTable(
		"Redundancy placement under attack (650 Hz, full power)",
		"Array", "Placement", "Survived", "Members lost", "Write MB/s")
	for _, r := range rows {
		tb.AddRow(r.Level.String(), r.Placement,
			fmt.Sprintf("%v", r.Survived),
			fmt.Sprintf("%d", r.DegradedMembers),
			fmt.Sprintf("%.1f", r.WriteMBps))
	}
	return tb
}
