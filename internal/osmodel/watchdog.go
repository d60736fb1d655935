package osmodel

import (
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/jfs"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// WatchdogConfig tunes the reboot supervisor.
type WatchdogConfig struct {
	// RebootDelay models crash detection plus firmware/boot latency: how
	// long after a crash the first reboot attempt starts, and how long
	// between retries while the device stays unreachable (default 5 s).
	RebootDelay time.Duration
	// MaxReboots bounds reboot attempts per crash episode (0 = unlimited).
	MaxReboots int
	// OnRepair runs before the remount, for storage-level recovery (e.g.
	// probing and resilvering a RAID array). A returned error aborts the
	// attempt; the watchdog retries after RebootDelay.
	OnRepair func() error
	// OnRecover runs after the OS boots, for application-level recovery
	// (e.g. reopening a database so its WAL replays). A returned error
	// counts the reboot as failed.
	OnRecover func(fs *jfs.FS) error
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	if c.RebootDelay <= 0 {
		c.RebootDelay = 5 * time.Second
	}
	return c
}

// Watchdog supervises a Server and drives the full recovery chain after a
// kernel panic: storage repair → remount (journal replay) → fsck → boot →
// application recovery. The paper's victim stays down forever once it
// crashes; this is the missing piece a hardened deployment would have.
type Watchdog struct {
	dev    blockdev.Device
	clock  *simclock.Virtual
	srvCfg Config
	cfg    WatchdogConfig

	srv *Server
	fs  *jfs.FS

	crashSeenAt time.Time
	nextAttempt time.Time
	attempts    int

	// Stats
	// Reboots counts successful recoveries; FailedReboots counts attempts
	// that died partway down the chain (typically because the attack was
	// still in progress).
	Reboots, FailedReboots int64
	// Downtime sums crash-to-recovery virtual time across episodes.
	Downtime time.Duration
	// ReplayedTx counts journal transactions replayed across reboots;
	// FsckProblems counts findings from post-replay checks.
	ReplayedTx   int64
	FsckProblems int64
}

// NewWatchdog builds a supervisor for a server rooted on dev. Call Adopt
// with the initially booted server, then Step on every simulation tick.
func NewWatchdog(dev blockdev.Device, clock *simclock.Virtual, srvCfg Config, cfg WatchdogConfig) *Watchdog {
	return &Watchdog{dev: dev, clock: clock, srvCfg: srvCfg, cfg: cfg.withDefaults()}
}

// Adopt starts supervising a running server and its filesystem.
func (w *Watchdog) Adopt(srv *Server, fs *jfs.FS) {
	w.srv = srv
	w.fs = fs
	w.crashSeenAt = time.Time{}
	w.attempts = 0
}

// Server returns the currently supervised server (replaced after reboots).
func (w *Watchdog) Server() *Server { return w.srv }

// FS returns the current root filesystem (replaced after reboots).
func (w *Watchdog) FS() *jfs.FS { return w.fs }

// Step checks the supervised server and, when it has crashed, attempts the
// recovery chain once per RebootDelay. Safe to call every tick.
func (w *Watchdog) Step() {
	if w.srv == nil {
		return
	}
	crashed, _ := w.srv.Crashed()
	if !crashed {
		return
	}
	now := w.clock.Now()
	if w.crashSeenAt.IsZero() {
		w.crashSeenAt = now
		w.nextAttempt = now.Add(w.cfg.RebootDelay)
		w.attempts = 0
		return
	}
	if now.Before(w.nextAttempt) {
		return
	}
	if w.cfg.MaxReboots > 0 && w.attempts >= w.cfg.MaxReboots {
		return
	}
	w.attempts++
	crashedAt := w.srv.CrashedAt()
	if w.tryReboot() {
		// Downtime runs from the kernel panic, not from detection.
		w.Downtime += w.clock.Now().Sub(crashedAt)
		w.Reboots++
		// The new server is adopted inside tryReboot.
		w.crashSeenAt = time.Time{}
		return
	}
	w.FailedReboots++
	w.nextAttempt = w.clock.Now().Add(w.cfg.RebootDelay)
}

// tryReboot runs the recovery chain. Any failing stage (a device still
// under attack fails the remount's journal replay) aborts the attempt
// without replacing the supervised server.
func (w *Watchdog) tryReboot() bool {
	if w.cfg.OnRepair != nil {
		if err := w.cfg.OnRepair(); err != nil {
			return false
		}
	}
	fs, err := jfs.Mount(w.dev, w.clock, jfs.Config{})
	if err != nil {
		return false
	}
	report := fs.Fsck()
	srv, err := Boot(fs, w.clock, w.srvCfg)
	if err != nil {
		return false
	}
	if w.cfg.OnRecover != nil {
		if err := w.cfg.OnRecover(fs); err != nil {
			return false
		}
	}
	w.ReplayedTx += int64(fs.Replays)
	w.FsckProblems += int64(len(report.Problems))
	oldCrashedAt := w.srv.CrashedAt()
	w.fs = fs
	w.srv = srv
	// Reboot banner: the recovery is visible in the new kernel's dmesg.
	srv.dmesg.Logf(w.clock.Now(), "watchdog: system recovered after %v downtime (journal replayed %d tx)",
		w.clock.Now().Sub(oldCrashedAt), fs.Replays)
	return true
}

// PublishMetrics pushes the watchdog's counters into a registry under the
// "osmodel.watchdog." prefix (no-op on a nil registry).
func (w *Watchdog) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Add("osmodel.watchdog.reboots", w.Reboots)
	reg.Add("osmodel.watchdog.failed_reboots", w.FailedReboots)
	reg.Add("osmodel.watchdog.downtime_ns_total", int64(w.Downtime))
	reg.Add("osmodel.watchdog.replayed_tx", w.ReplayedTx)
	reg.Add("osmodel.watchdog.fsck_problems", w.FsckProblems)
}
