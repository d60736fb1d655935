package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"deepnote/internal/attack"
	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/units"
)

// coarseFig2 keeps figure sweeps fast in tests.
func coarseFig2() Figure2Options {
	return Figure2Options{
		Start: 200 * units.Hz, End: 4000 * units.Hz, Step: 200 * units.Hz,
		JobRuntime: 300 * time.Millisecond,
	}
}

func TestFigure2WriteShape(t *testing.T) {
	res, err := Figure2(fio.SeqWrite, coarseFig2())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3 scenarios", len(res.Series))
	}
	for _, s := range res.Series {
		// Mid-band (600 Hz) is devastated; 4 kHz is healthy.
		var at600, at4000 float64
		for i, f := range s.Freqs {
			if f == 600 {
				at600 = s.MBps[i]
			}
			if f == 4000 {
				at4000 = s.MBps[i]
			}
		}
		if at600 > 1 {
			t.Errorf("%v: write at 600 Hz = %.1f MB/s, want ≈0", s.Scenario, at600)
		}
		if at4000 < 20 {
			t.Errorf("%v: write at 4 kHz = %.1f MB/s, want ≈22.7", s.Scenario, at4000)
		}
	}
}

func TestFigure2VulnerableBands(t *testing.T) {
	res, err := Figure2(fio.SeqWrite, coarseFig2())
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: plastic (Scenario 2) stays vulnerable to ≈1.7 kHz; aluminum
	// (Scenario 3) recovers by ≈1.3 kHz.
	b2, ok := res.VulnerableBand(core.Scenario2)
	if !ok {
		t.Fatal("no band for scenario 2")
	}
	b3, ok := res.VulnerableBand(core.Scenario3)
	if !ok {
		t.Fatal("no band for scenario 3")
	}
	if b2.High <= b3.High {
		t.Errorf("plastic band top %v should exceed aluminum %v", b2.High, b3.High)
	}
	if b2.Low > 500 || b3.Low > 500 {
		t.Errorf("band lower edges %v/%v, want ≈300 Hz", b2.Low, b3.Low)
	}
	if b3.High < 1000*units.Hz || b3.High > 1800*units.Hz {
		t.Errorf("aluminum band top %v, want ≈1.3 kHz", b3.High)
	}
}

func TestFigure2ReadNarrowerThanWrite(t *testing.T) {
	w, err := Figure2(fio.SeqWrite, coarseFig2())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Figure2(fio.SeqRead, coarseFig2())
	if err != nil {
		t.Fatal(err)
	}
	bw, _ := w.VulnerableBand(core.Scenario3)
	br, ok := r.VulnerableBand(core.Scenario3)
	if !ok {
		t.Fatal("no read band")
	}
	if br.Width() > bw.Width() {
		t.Errorf("read band %v wider than write band %v", br, bw)
	}
}

func TestFigure2Chart(t *testing.T) {
	res, err := Figure2(fio.SeqWrite, Figure2Options{
		Start: 400, End: 1200, Step: 400, JobRuntime: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Chart().String()
	if !strings.Contains(out, "Sequential Write") || !strings.Contains(out, "Scenario 2") {
		t.Fatalf("chart missing labels:\n%s", out)
	}
}

// TestFigure2RejectsUnboundedBand: a negative or non-finite band edge or
// step would leave the sweep loop without an end; zero still selects the
// default band.
func TestFigure2RejectsUnboundedBand(t *testing.T) {
	for name, edit := range map[string]func(*Figure2Options){
		"NaN step":       func(o *Figure2Options) { o.Step = units.Frequency(math.NaN()) },
		"negative step":  func(o *Figure2Options) { o.Step = -100 },
		"negative start": func(o *Figure2Options) { o.Start = -1 },
		"Inf end":        func(o *Figure2Options) { o.End = units.Frequency(math.Inf(1)) },
	} {
		o := coarseFig2()
		edit(&o)
		if _, err := Figure2(fio.SeqWrite, o); err == nil {
			t.Errorf("%s: Figure2 accepted %+v", name, o)
		}
	}
}

func TestTable1MatchesPaperShape(t *testing.T) {
	res, err := Table1Observed(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(PaperTable1) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(PaperTable1))
	}
	for i, row := range res.Rows {
		paper := PaperTable1[i]
		if row.Distance != paper.Distance {
			t.Fatalf("row %d distance %v, want %v", i, row.Distance, paper.Distance)
		}
		// Qualitative agreement: dead rows dead, healthy rows healthy.
		if paper.WriteNoResponse && !row.WriteNoResponse {
			t.Errorf("row %d (%v): paper has write no-response, we measured %.1f MB/s",
				i, row.Distance, row.WriteMBps)
		}
		if paper.WriteMBps > 15 && row.WriteMBps < paper.WriteMBps*0.75 {
			t.Errorf("row %d (%v): write %.1f MB/s far below paper %.1f",
				i, row.Distance, row.WriteMBps, paper.WriteMBps)
		}
		if paper.ReadMBps > 15 && row.ReadMBps < paper.ReadMBps*0.75 {
			t.Errorf("row %d (%v): read %.1f MB/s far below paper %.1f",
				i, row.Distance, row.ReadMBps, paper.ReadMBps)
		}
	}
	rep := res.Report().String()
	if !strings.Contains(rep, "No Attack") || !strings.Contains(rep, "paper R") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}

func TestTable2MatchesPaperShape(t *testing.T) {
	res, err := Table2(Table2Options{Runtime: 3 * time.Second, Fill: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base := res.Rows[0]
	if base.MBps < 6 || base.MBps > 14 {
		t.Errorf("baseline = %.1f MB/s, want ≈8.7", base.MBps)
	}
	if base.OpsPerSec < 0.7e5 || base.OpsPerSec > 1.6e5 {
		t.Errorf("baseline ops/s = %.0f, want ≈1.1e5", base.OpsPerSec)
	}
	// 1 cm and 5 cm: collapse to ≈0 (paper: 0).
	for i := 1; i <= 2; i++ {
		if res.Rows[i].MBps > 0.5 {
			t.Errorf("row %d: %.2f MB/s under close attack, want ≈0", i, res.Rows[i].MBps)
		}
	}
	// 20+ cm: recovered to near baseline.
	for i := 5; i <= 6; i++ {
		if res.Rows[i].MBps < base.MBps*0.7 {
			t.Errorf("row %d: %.1f MB/s, want near baseline %.1f", i, res.Rows[i].MBps, base.MBps)
		}
	}
	// Monotone-ish recovery from 5 cm outward.
	for i := 3; i <= 6; i++ {
		if res.Rows[i].MBps+0.3 < res.Rows[i-1].MBps {
			t.Errorf("throughput regressed with distance at row %d", i)
		}
	}
	rep := res.Report().String()
	if !strings.Contains(rep, "paper MB/s") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	res, err := Table3Observed(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if !o.Crashed {
			t.Errorf("%s did not crash", o.Target)
			continue
		}
		paper := PaperTable3[o.Target]
		got := o.TimeToCrash.Seconds()
		if got < paper-10 || got > paper+12 {
			t.Errorf("%s: time to crash %.1f s, paper %.1f s", o.Target, got, paper)
		}
	}
	mean := res.MeanTimeToCrash().Seconds()
	if mean < 72 || mean > 90 {
		t.Errorf("mean time to crash = %.1f s, paper: 80.8 s", mean)
	}
	rep := res.Report().String()
	for _, want := range []string{"ext4", "ubuntu", "rocksdb", "Journaling filesystem"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestMeanTimeToCrashEmpty(t *testing.T) {
	var r Table3Result
	if r.MeanTimeToCrash() != 0 {
		t.Fatal("empty mean should be 0")
	}
	r.Outcomes = []attack.CrashOutcome{{Target: attack.TargetExt4, Crashed: false}}
	if r.MeanTimeToCrash() != 0 {
		t.Fatal("uncrashed outcomes should not count")
	}
}

func TestVulnerableBandMissingScenario(t *testing.T) {
	var r Figure2Result
	if _, ok := r.VulnerableBand(core.Scenario1); ok {
		t.Fatal("band found in empty result")
	}
}
