package attack

import (
	"fmt"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/metrics"
	"deepnote/internal/osmodel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// CrashTarget selects the software stack attacked in §4.4.
type CrashTarget string

// The paper's three crash victims.
const (
	TargetExt4    CrashTarget = "ext4"
	TargetUbuntu  CrashTarget = "ubuntu"
	TargetRocksDB CrashTarget = "rocksdb"
)

// CrashOutcome is one row of Table 3.
type CrashOutcome struct {
	Target CrashTarget
	// Crashed reports whether the stack died within the timeout.
	Crashed bool
	// TimeToCrash is virtual time from attack start to crash.
	TimeToCrash time.Duration
	// ErrorOutput is the crash signature the stack reported.
	ErrorOutput string
}

// ProlongedAttack holds a tone on a Scenario 2 target stack until it
// crashes, using the paper's best parameters by default (650 Hz, 140 dB,
// 1 cm).
type ProlongedAttack struct {
	Freq     units.Frequency
	Distance units.Distance
	// Timeout bounds the experiment in virtual time (default 150 s).
	Timeout time.Duration
	Seed    int64
	// Metrics, when set, receives the layer counters of every stack the
	// attack builds (hdd, blockdev, jfs, kvdb, osmodel) plus crash-outcome
	// counters under "attack." (nil = uninstrumented).
	Metrics *metrics.Registry
}

func (p ProlongedAttack) withDefaults() ProlongedAttack {
	if p.Freq == 0 {
		p.Freq = 650 * units.Hz
	}
	if p.Distance == 0 {
		p.Distance = 1 * units.Centimeter
	}
	if p.Timeout == 0 {
		p.Timeout = 150 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Run executes the prolonged attack against the chosen target.
func (p ProlongedAttack) Run(target CrashTarget) (CrashOutcome, error) {
	p = p.withDefaults()
	switch target {
	case TargetExt4:
		return p.runExt4()
	case TargetUbuntu:
		return p.runUbuntu()
	case TargetRocksDB:
		return p.runRocksDB()
	default:
		return CrashOutcome{}, fmt.Errorf("attack: unknown crash target %q", target)
	}
}

// publishOutcome records a finished run's layer counters and crash
// outcome (no-op on a nil registry).
func (p ProlongedAttack) publishOutcome(rig *core.Rig, out CrashOutcome) {
	if p.Metrics == nil {
		return
	}
	rig.Drive.PublishMetrics(p.Metrics)
	rig.Disk.PublishMetrics(p.Metrics)
	p.Metrics.Add("attack.crash_runs", 1)
	if out.Crashed {
		p.Metrics.Add("attack.crashes", 1)
		p.Metrics.MaxGauge("attack.time_to_crash_s_max", out.TimeToCrash.Seconds())
	}
}

// RunAll executes all three targets, like the paper's Table 3.
func (p ProlongedAttack) RunAll() ([]CrashOutcome, error) {
	out := make([]CrashOutcome, 0, 3)
	for _, t := range []CrashTarget{TargetExt4, TargetUbuntu, TargetRocksDB} {
		o, err := p.Run(t)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// setupFS builds a rig with a mounted filesystem, still quiet.
func (p ProlongedAttack) setupFS() (*core.Rig, *jfs.FS, error) {
	rig, err := core.NewRig(core.Scenario2, p.Distance, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	if err := jfs.Mkfs(rig.Disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
		return nil, nil, err
	}
	fs, err := jfs.Mount(rig.Disk, rig.Clock, jfs.Config{})
	if err != nil {
		return nil, nil, err
	}
	return rig, fs, nil
}

func (p ProlongedAttack) runExt4() (CrashOutcome, error) {
	rig, fs, err := p.setupFS()
	if err != nil {
		return CrashOutcome{}, err
	}
	f, err := fs.Create("workload.dat")
	if err != nil {
		return CrashOutcome{}, err
	}
	// Seed dirty metadata, then start the attack.
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		return CrashOutcome{}, err
	}
	start := rig.Clock.Now()
	rig.ApplyTone(sig.NewTone(p.Freq))

	out := CrashOutcome{Target: TargetExt4}
	var off int64 = 4096
	for rig.Clock.Now().Sub(start) < p.Timeout {
		// A continuously writing application, like the paper's workload.
		_, _ = f.WriteAt(make([]byte, 4096), off%(1<<20))
		off += 4096
		rig.Clock.Sleep(100 * time.Millisecond)
		fs.Tick()
		if aborted, abortErr := fs.Aborted(); aborted {
			out.Crashed = true
			out.TimeToCrash = fs.CrashedAt().Sub(start)
			out.ErrorOutput = abortErr.Error()
			break
		}
	}
	fs.PublishMetrics(p.Metrics)
	p.publishOutcome(rig, out)
	return out, nil
}

func (p ProlongedAttack) runUbuntu() (CrashOutcome, error) {
	rig, fs, err := p.setupFS()
	if err != nil {
		return CrashOutcome{}, err
	}
	srv, err := osmodel.Boot(fs, rig.Clock, osmodel.Config{Seed: p.Seed})
	if err != nil {
		return CrashOutcome{}, err
	}
	start := rig.Clock.Now()
	rig.ApplyTone(sig.NewTone(p.Freq))

	out := CrashOutcome{Target: TargetUbuntu}
	for rig.Clock.Now().Sub(start) < p.Timeout {
		rig.Clock.Sleep(250 * time.Millisecond)
		srv.Step()
		if crashed, crashErr := srv.Crashed(); crashed {
			out.Crashed = true
			out.TimeToCrash = srv.CrashedAt().Sub(start)
			out.ErrorOutput = crashErr.Error()
			break
		}
	}
	fs.PublishMetrics(p.Metrics)
	srv.PublishMetrics(p.Metrics)
	p.publishOutcome(rig, out)
	return out, nil
}

func (p ProlongedAttack) runRocksDB() (CrashOutcome, error) {
	rig, fs, err := p.setupFS()
	if err != nil {
		return CrashOutcome{}, err
	}
	db, err := kvdb.Open(fs, rig.Clock, kvdb.Options{Seed: p.Seed})
	if err != nil {
		return CrashOutcome{}, err
	}
	bench := kvdb.NewBench(db, rig.Clock)
	// Warm the store, then attack under a readwhilewriting load.
	if _, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadFillRandom, Num: 2000}); err != nil {
		return CrashOutcome{}, err
	}
	start := rig.Clock.Now()
	rig.ApplyTone(sig.NewTone(p.Freq))

	res, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadReadWhileWriting, Runtime: p.Timeout})
	if err != nil {
		return CrashOutcome{}, err
	}
	out := CrashOutcome{Target: TargetRocksDB}
	if res.Crashed {
		out.Crashed = true
		out.TimeToCrash = db.CrashedAt().Sub(start)
		out.ErrorOutput = res.CrashErr.Error()
	}
	fs.PublishMetrics(p.Metrics)
	db.PublishMetrics(p.Metrics)
	p.publishOutcome(rig, out)
	return out, nil
}
