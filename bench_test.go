// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the full experiment per iteration and reports the
// headline quantities as custom metrics (so `go test -bench` output reads
// like the paper's results), alongside conventional time/op for the
// simulation cost itself.
package deepnote

import (
	"testing"
	"time"

	"deepnote/internal/attack"
	"deepnote/internal/experiment"
	"deepnote/internal/fio"
	"deepnote/internal/kvdb"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// BenchmarkFigure2aSeqWrite regenerates Figure 2(a): sequential-write
// throughput versus attack frequency for all three scenarios.
func BenchmarkFigure2aSeqWrite(b *testing.B) {
	opts := experiment.Figure2Options{
		Start: 200 * units.Hz, End: 8000 * units.Hz, Step: 200 * units.Hz,
		JobRuntime: 300 * time.Millisecond,
	}
	var res experiment.Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure2(fio.SeqWrite, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		if band, ok := res.VulnerableBand(s.Scenario); ok {
			b.ReportMetric(band.Low.Hertz(), "s"+string('0'+byte(s.Scenario))+"_band_low_Hz")
			b.ReportMetric(band.High.Hertz(), "s"+string('0'+byte(s.Scenario))+"_band_high_Hz")
		}
	}
}

// BenchmarkFigure2bSeqRead regenerates Figure 2(b): sequential-read
// throughput versus attack frequency.
func BenchmarkFigure2bSeqRead(b *testing.B) {
	opts := experiment.Figure2Options{
		Start: 200 * units.Hz, End: 8000 * units.Hz, Step: 200 * units.Hz,
		JobRuntime: 300 * time.Millisecond,
	}
	var res experiment.Figure2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Figure2(fio.SeqRead, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		if band, ok := res.VulnerableBand(s.Scenario); ok {
			b.ReportMetric(band.High.Hertz(), "s"+string('0'+byte(s.Scenario))+"_read_band_high_Hz")
		}
	}
}

// BenchmarkTable1RangeFIO regenerates Table 1: FIO throughput and latency
// at each speaker distance (650 Hz, Scenario 2).
func BenchmarkTable1RangeFIO(b *testing.B) {
	var res experiment.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table1Observed(1, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Rows) == 7 {
		b.ReportMetric(res.Rows[0].ReadMBps, "noattack_read_MBps")
		b.ReportMetric(res.Rows[0].WriteMBps, "noattack_write_MBps")
		b.ReportMetric(res.Rows[3].ReadMBps, "10cm_read_MBps")
		b.ReportMetric(res.Rows[3].WriteMBps, "10cm_write_MBps")
		b.ReportMetric(res.Rows[6].WriteMBps, "25cm_write_MBps")
	}
}

// BenchmarkTable2RangeRocksDB regenerates Table 2: RocksDB
// readwhilewriting throughput and I/O rate versus distance.
func BenchmarkTable2RangeRocksDB(b *testing.B) {
	opts := experiment.Table2Options{Runtime: 3 * time.Second, Fill: 2000}
	var res experiment.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table2(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Rows) == 7 {
		b.ReportMetric(res.Rows[0].MBps, "noattack_MBps")
		b.ReportMetric(res.Rows[0].OpsPerSec, "noattack_ops_per_s")
		b.ReportMetric(res.Rows[1].MBps, "1cm_MBps")
		b.ReportMetric(res.Rows[4].MBps, "15cm_MBps")
	}
}

// BenchmarkTable3Crashes regenerates Table 3: time-to-crash of Ext4, the
// Ubuntu server model, and RocksDB under the prolonged attack.
func BenchmarkTable3Crashes(b *testing.B) {
	var res experiment.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Table3Observed(1, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, o := range res.Outcomes {
		if o.Crashed {
			b.ReportMetric(o.TimeToCrash.Seconds(), string(o.Target)+"_crash_s")
		}
	}
	b.ReportMetric(res.MeanTimeToCrash().Seconds(), "mean_crash_s")
}

// BenchmarkHeadlineThroughputLoss verifies the abstract's headline: up to
// 100% throughput loss in the 300 Hz–1.3 kHz band.
func BenchmarkHeadlineThroughputLoss(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		rig, err := NewRig(Scenario2, 1*Centimeter, 1)
		if err != nil {
			b.Fatal(err)
		}
		base, err := RunFIO(rig, SeqWrite, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		rig.ApplyTone(Tone(650 * Hz))
		hit, err := RunFIO(rig, SeqWrite, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		loss = 1 - hit.ThroughputMBps()/base.ThroughputMBps()
	}
	b.ReportMetric(loss*100, "throughput_loss_pct")
}

// BenchmarkDefenseSuite is the ablation bench for §5's proposed defenses:
// residual peak off-track ratio per defense.
func BenchmarkDefenseSuite(b *testing.B) {
	tb, err := NewTestbed(Scenario2, 1*Centimeter)
	if err != nil {
		b.Fatal(err)
	}
	var evs []DefenseEvaluation
	for i := 0; i < b.N; i++ {
		evs = EvaluateDefenses(tb)
	}
	for i, ev := range evs {
		b.ReportMetric(ev.PeakRatioAfter, "defense"+string('0'+byte(i))+"_peak_ratio")
	}
}

// BenchmarkSweepProcedure measures the attacker's full two-phase sweep.
func BenchmarkSweepProcedure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Sweep(Scenario3, SeqWrite)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bands) == 0 {
			b.Fatal("sweep found nothing")
		}
	}
}

// --- parallel engine: serial vs fanned-out grids ------------------------
//
// The sweep and fleet grids are embarrassingly parallel; these benches pin
// the wall-clock cost of the same experiment at 1 worker, 4 workers, and
// one worker per CPU. Results are bit-identical across the variants (see
// the determinism tests); only the time/op should move.

func benchmarkSweepWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		res, err := attack.Sweeper{Scenario: Scenario3, Workers: workers}.Run(SeqWrite)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bands) == 0 {
			b.Fatal("sweep found nothing")
		}
	}
}

// BenchmarkSweepSerial is the §4.1 full two-phase sweep on one worker.
func BenchmarkSweepSerial(b *testing.B) { benchmarkSweepWorkers(b, 1) }

// BenchmarkSweepParallel4 is the same sweep fanned over 4 workers.
func BenchmarkSweepParallel4(b *testing.B) { benchmarkSweepWorkers(b, 4) }

// BenchmarkSweepParallelMaxCPU is the same sweep at one worker per CPU.
func BenchmarkSweepParallelMaxCPU(b *testing.B) { benchmarkSweepWorkers(b, 0) }

// --- micro-benchmarks on the substrates ---------------------------------

// BenchmarkDriveSequentialWrite measures the simulated drive's op cost in
// host time (virtual time is the modeled quantity).
func BenchmarkDriveSequentialWrite(b *testing.B) {
	rig, err := NewRig(Scenario2, 1*Centimeter, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.Disk.WriteAt(buf, int64(i%100000)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriveUnderAttack measures the op cost with the vibration model
// engaged (retry sampling active).
func BenchmarkDriveUnderAttack(b *testing.B) {
	rig, err := NewRig(Scenario2, 15*Centimeter, 1)
	if err != nil {
		b.Fatal(err)
	}
	rig.ApplyTone(Tone(650 * Hz))
	buf := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = rig.Disk.WriteAt(buf, int64(i%100000)*4096)
	}
}

// BenchmarkKVDBPut measures the LSM write path end to end.
func BenchmarkKVDBPut(b *testing.B) {
	rig, err := NewRig(Scenario2, 1*Centimeter, 1)
	if err != nil {
		b.Fatal(err)
	}
	_, db, _, err := NewStack(rig, 1)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(time.Unix(int64(i), 0).String()), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVDBGet measures the LSM read path on a warm store.
func BenchmarkKVDBGet(b *testing.B) {
	rig, err := NewRig(Scenario2, 1*Centimeter, 1)
	if err != nil {
		b.Fatal(err)
	}
	_, db, _, err := NewStack(rig, 1)
	if err != nil {
		b.Fatal(err)
	}
	bench := kvdb.NewBench(db, rig.Clock)
	if _, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadFillRandom, Num: 5000}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = db.Get([]byte("0000000000000042"))
	}
}

// BenchmarkSection5Ranges regenerates the §5 effective-range matrix.
func BenchmarkSection5Ranges(b *testing.B) {
	var rows []experiment.RangeScenario
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiment.Section5Ranges(650 * units.Hz)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Tier.Name == "pool speaker (AQ339-class)" && r.Water == "freshwater tank" {
			b.ReportMetric(r.MaxRange.Centimeters(), "pool_range_cm")
		}
	}
}

// BenchmarkControlledOutage regenerates the §3 objective-1 timeline.
func BenchmarkControlledOutage(b *testing.B) {
	var res experiment.OutageResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.DefaultControlledOutage().Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.BeforeMBps, "before_MBps")
	b.ReportMetric(res.DuringMBps, "during_MBps")
	b.ReportMetric(res.AfterMBps, "after_MBps")
}

// BenchmarkRemoteSweep measures the latency-only reconnaissance procedure.
func BenchmarkRemoteSweep(b *testing.B) {
	var res attack.RemoteSweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = attack.RemoteSweeper{
			Plan: sig.SweepPlan{Start: 100, End: 4000, CoarseStep: 200, FineStep: 50, DwellSec: 1},
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.InferredBands) > 0 {
		b.ReportMetric(res.InferredBands[0].Low.Hertz(), "inferred_low_Hz")
		b.ReportMetric(res.InferredBands[0].High.Hertz(), "inferred_high_Hz")
	}
}

// BenchmarkProlongedAttackExt4 measures the full 80-virtual-second crash
// experiment's host cost.
func BenchmarkProlongedAttackExt4(b *testing.B) {
	var ttc time.Duration
	for i := 0; i < b.N; i++ {
		o, err := attack.ProlongedAttack{}.Run(attack.TargetExt4)
		if err != nil {
			b.Fatal(err)
		}
		if !o.Crashed {
			b.Fatal("no crash")
		}
		ttc = o.TimeToCrash
	}
	b.ReportMetric(ttc.Seconds(), "crash_s")
}
