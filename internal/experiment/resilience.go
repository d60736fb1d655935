package experiment

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/core"
	"deepnote/internal/detect"
	"deepnote/internal/faultinj"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/metrics"
	"deepnote/internal/osmodel"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// Resilience reruns the paper's §4.3 prolonged attack against a ladder of
// victim stacks: the bare paper victim (which crashes and stays down), the
// same stack under a watchdog (which reboots through journal replay, fsck
// and WAL recovery once the tone stops), and a hardened stack that also
// retries device I/O with backoff. An injected transient-fault burst before
// the attack shows the retry layer masking ordinary storage glitches that
// the bare stack surfaces as dmesg errors. The paper measures time-to-
// crash; this experiment adds the operations side: availability over the
// whole episode and mean time to recovery. The tone is the paper's
// 650 Hz from 1 cm in Scenario 2; availability is sampled every 250 ms,
// and the victim's tray sensor hears no ambient soundscape.
type Resilience struct {
	// Pre is the healthy lead-in; the injected fault burst fires inside it.
	Pre time.Duration
	// Attack is how long the tone is held (by default past the ≈81 s
	// Ubuntu time-to-crash).
	Attack time.Duration
	// Cooldown is the post-attack window in which recovery can happen.
	Cooldown time.Duration
	// CrashThreshold is the OS crash threshold; tests shrink it to keep
	// virtual time short.
	CrashThreshold time.Duration
	// Workers bounds the config fan-out (≤ 0 = one per CPU). Results are
	// bit-identical for any worker count.
	Workers int
	// Metrics, when set, receives every layer's counters — including the
	// injected-fault and recovery-action counters (nil = uninstrumented).
	Metrics *metrics.Registry
}

// DefaultResilience is the ladder `deepnote resilience` runs with no
// flags.
func DefaultResilience() Resilience {
	return Resilience{
		Pre: 10 * time.Second, Attack: 100 * time.Second,
		Cooldown: 60 * time.Second, CrashThreshold: 80 * time.Second,
	}
}

// ResilienceRow is one stack configuration's episode outcome.
type ResilienceRow struct {
	Config string
	// Crashed reports whether the OS died during the episode; TimeToCrash
	// is measured from attack start.
	Crashed     bool
	TimeToCrash time.Duration
	// Recovered reports the stack was serving again by the end of the
	// cooldown; Reboots counts successful watchdog recoveries and MTTR is
	// the mean crash-to-recovery time.
	Recovered bool
	Reboots   int64
	MTTR      time.Duration
	// AvailabilityPct is the fraction of samples with a live OS.
	AvailabilityPct float64
	// BurstMasked reports whether the pre-attack injected fault burst was
	// fully absorbed (no page-in errors before the tone started).
	BurstMasked bool
	// Detected reports the spectral fingerprinter identified the attack
	// tone; DetectLatency is key-on to the first hostile verdict. Every
	// rung carries the same detection stack, so the ladder shows how far
	// ahead of the crash horizon the operator hears the attack.
	Detected      bool
	DetectLatency time.Duration
}

// resilienceConfig is one rung of the hardening ladder.
type resilienceConfig struct {
	name     string
	retries  bool
	watchdog bool
}

func resilienceConfigs() []resilienceConfig {
	return []resilienceConfig{
		{name: "bare", retries: false, watchdog: false},
		{name: "watchdog", retries: false, watchdog: true},
		{name: "hardened", retries: true, watchdog: true},
	}
}

// preBurst is the transient storage glitch injected before the attack: one
// second of certain I/O errors, well under the crash threshold.
func (r Resilience) preBurst() faultinj.Fault {
	return faultinj.Fault{
		Start:    r.Pre / 2,
		Duration: time.Second,
	}
}

// resilienceRetryPolicy rides out the one-second injected burst: the
// cumulative backoff comfortably exceeds the burst window while staying
// inside the per-request budget.
func resilienceRetryPolicy() blockdev.RetryPolicy {
	return blockdev.RetryPolicy{
		MaxRetries:  8,
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		Budget:      4 * time.Second,
	}
}

// runResilienceConfig runs one stack through pre → attack → cooldown.
func (r Resilience) runResilienceConfig(cfg resilienceConfig, seed int64) (ResilienceRow, error) {
	row := ResilienceRow{Config: cfg.name}
	rig, err := core.NewRig(core.Scenario2, 1*units.Centimeter, seed)
	if err != nil {
		return row, err
	}
	clock := rig.Clock

	// Device stack: acoustic drive → fault injector → (optional) retrier
	// → latency/error monitor outermost, so the detector sees exactly the
	// I/O behavior the OS sees.
	inj := faultinj.Wrap(rig.Disk, clock, r.preBurst())
	var dev blockdev.Device = inj
	var retrier *blockdev.Retrier
	if cfg.retries {
		retrier = blockdev.NewRetrier(inj, clock, resilienceRetryPolicy())
		dev = retrier
	}
	mon, err := detect.NewMonitor(dev, clock, detect.Config{})
	if err != nil {
		return row, err
	}
	dev = mon

	// The spectral side: tray telemetry synthesized and classified in
	// lockstep with the sampling loop.
	fp, err := detect.NewFingerprinter(detect.FingerprintConfig{})
	if err != nil {
		return row, err
	}
	origin := clock.Now()
	fp.SetOrigin(origin)
	synth := detect.NewSynth(fp.SampleRate(), fp.WindowSamples(),
		detect.DefaultSensorSigma, parallel.SeedFor(seed, 1))
	winDur := fp.WindowDuration()
	maxSuspicion := 0.0

	if err := jfs.Mkfs(dev, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
		return row, err
	}
	fs, err := jfs.Mount(dev, clock, jfs.Config{})
	if err != nil {
		return row, err
	}
	srvCfg := osmodel.Config{Seed: seed, CrashThreshold: r.CrashThreshold}
	srv, err := osmodel.Boot(fs, clock, srvCfg)
	if err != nil {
		return row, err
	}

	// The hardened stack also carries a key-value store whose WAL must
	// replay through the watchdog's recovery chain.
	var db *kvdb.DB
	if cfg.retries {
		db, err = kvdb.Open(fs, clock, kvdb.Options{Seed: seed})
		if err != nil {
			return row, err
		}
		for i := 0; i < 32; i++ {
			if err := db.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte("v")); err != nil {
				return row, err
			}
		}
	}

	var wd *osmodel.Watchdog
	if cfg.watchdog {
		wd = osmodel.NewWatchdog(dev, clock, srvCfg, osmodel.WatchdogConfig{
			OnRecover: func(newFS *jfs.FS) error {
				if db == nil {
					return nil
				}
				reopened, err := kvdb.Open(newFS, clock, kvdb.Options{Seed: seed})
				if err != nil {
					return err
				}
				db = reopened
				return nil
			},
		})
		wd.Adopt(srv, fs)
	}
	current := func() *osmodel.Server {
		if wd != nil {
			return wd.Server()
		}
		return srv
	}

	var total, up int64
	var crashedAt time.Time
	runPhase := func(d time.Duration) {
		deadline := clock.Now().Add(d)
		for clock.Now().Before(deadline) {
			clock.Sleep(250 * time.Millisecond)
			current().Step()
			if wd != nil {
				wd.Step()
			}
			// Classify every telemetry window the step crossed.
			for !origin.Add(time.Duration(synth.Windows()+1) * winDur).After(clock.Now()) {
				fp.Feed(synth.Window(rig.Drive.Vibration(), sig.Ambient{}))
			}
			if sus := mon.Suspicion(); sus > maxSuspicion {
				maxSuspicion = sus
			}
			total++
			crashed, _ := current().Crashed()
			if !crashed {
				up++
			} else if !row.Crashed {
				row.Crashed = true
				crashedAt = current().CrashedAt()
			}
		}
	}

	runPhase(r.Pre)
	burstErrors := current().PageInErrors + current().LogErrors
	row.BurstMasked = burstErrors == 0

	attackStart := clock.Now()
	rig.ApplyTone(sig.NewTone(650 * units.Hz))
	runPhase(r.Attack)
	rig.Silence()
	runPhase(r.Cooldown)

	if row.Crashed {
		row.TimeToCrash = crashedAt.Sub(attackStart)
		if row.TimeToCrash < 0 {
			row.TimeToCrash = 0
		}
	}
	if crashed, _ := current().Crashed(); !crashed && row.Crashed {
		row.Recovered = true
	}
	if wd != nil {
		row.Reboots = wd.Reboots
		if wd.Reboots > 0 {
			row.MTTR = wd.Downtime / time.Duration(wd.Reboots)
		}
	}
	if total > 0 {
		row.AvailabilityPct = 100 * float64(up) / float64(total)
	}
	if det, ok, _ := fp.FirstDetection(attackStart); ok {
		row.Detected = true
		row.DetectLatency = det.At.Sub(attackStart)
	}

	r.publishConfig(cfg, rig, inj, retrier, fs, srv, wd, db, row, maxSuspicion)
	return row, nil
}

// publishConfig pushes one config's layer counters and outcome into the
// shared registry. Registry merges are commutative, so concurrent config
// tasks publish directly and the snapshot is identical at any worker
// count.
func (r Resilience) publishConfig(cfg resilienceConfig, rig *core.Rig, inj *faultinj.Device,
	retrier *blockdev.Retrier, fs *jfs.FS, srv *osmodel.Server, wd *osmodel.Watchdog, db *kvdb.DB,
	row ResilienceRow, maxSuspicion float64) {
	reg := r.Metrics
	if reg == nil {
		return
	}
	rig.Drive.PublishMetrics(reg)
	rig.Disk.PublishMetrics(reg)
	inj.PublishMetrics(reg)
	if retrier != nil {
		retrier.PublishMetrics(reg)
	}
	if wd != nil {
		wd.Server().PublishMetrics(reg)
		wd.PublishMetrics(reg)
		fs = wd.FS()
	} else {
		srv.PublishMetrics(reg)
	}
	fs.PublishMetrics(reg)
	if db != nil {
		db.PublishMetrics(reg)
	}
	prefix := "experiment.resilience." + cfg.name
	reg.Add(prefix+".runs", 1)
	if row.Crashed {
		reg.Add(prefix+".crashes", 1)
	}
	if row.Recovered {
		reg.Add(prefix+".recoveries", 1)
	}
	reg.Add(prefix+".reboots", row.Reboots)
	reg.MaxGauge(prefix+".availability_pct", row.AvailabilityPct)
	if row.Crashed {
		reg.MaxGauge(prefix+".time_to_crash_s", row.TimeToCrash.Seconds())
	}
	if row.MTTR > 0 {
		reg.MaxGauge(prefix+".mttr_s", row.MTTR.Seconds())
	}
	if row.Detected {
		reg.Add(prefix+".detections", 1)
		reg.MaxGauge(prefix+".detect_latency_s", row.DetectLatency.Seconds())
	}
	reg.MaxGauge(prefix+".max_suspicion", maxSuspicion)
}

// Run executes the hardening ladder, fanning the independent stack
// simulations over the worker pool.
func (r Resilience) Run() ([]ResilienceRow, error) {
	if err := valid.First("experiment: Resilience",
		valid.Positive("Pre", r.Pre),
		valid.Positive("Attack", r.Attack),
		valid.AtLeast("Cooldown", r.Cooldown, 0),
		valid.Positive("CrashThreshold", r.CrashThreshold),
	); err != nil {
		return nil, err
	}
	return parallel.RunObserved(context.Background(), resilienceConfigs(), r.Workers, r.Metrics,
		func(_ context.Context, i int, cfg resilienceConfig) (ResilienceRow, error) {
			return r.runResilienceConfig(cfg, parallel.SeedFor(1, i))
		})
}

// ResilienceReport renders the ladder.
func ResilienceReport(rows []ResilienceRow) *report.Table {
	tb := report.NewTable(
		"Prolonged attack vs hardening ladder (650 Hz, full power)",
		"Config", "Crashed", "TTC s", "Recovered", "Reboots", "MTTR s", "Avail %", "Burst masked", "Detect s")
	for _, r := range rows {
		ttc, mttr, det := "-", "-", "-"
		if r.Crashed {
			ttc = fmt.Sprintf("%.1f", r.TimeToCrash.Seconds())
		}
		if r.MTTR > 0 {
			mttr = fmt.Sprintf("%.1f", r.MTTR.Seconds())
		}
		if r.Detected {
			det = fmt.Sprintf("%.2f", r.DetectLatency.Seconds())
		}
		tb.AddRow(r.Config,
			fmt.Sprintf("%v", r.Crashed), ttc,
			fmt.Sprintf("%v", r.Recovered),
			fmt.Sprintf("%d", r.Reboots), mttr,
			fmt.Sprintf("%.1f", r.AvailabilityPct),
			fmt.Sprintf("%v", r.BurstMasked),
			det)
	}
	return tb
}
