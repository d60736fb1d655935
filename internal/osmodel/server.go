// Package osmodel simulates the server operating system the paper crashes
// in Table 3: an Ubuntu-like server whose root filesystem lives on the
// victim drive. The kernel's interaction with storage is reduced to the
// parts that matter for the attack: periodic page-ins of executable pages,
// periodic log flushes, a dmesg ring that records buffer I/O errors, and a
// crash rule — when critical I/O has failed continuously for the crash
// threshold, the system is declared dead (the paper observes the machine
// unable to access any file, including `ls`, with buffer I/O errors in
// dmesg).
package osmodel

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/jfs"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// Errors reported by the server.
var (
	// ErrCrashed means the OS has crashed and rejects all work.
	ErrCrashed = errors.New("osmodel: kernel panic - not syncing: I/O failure on root device")
)

// Config tunes the server model. The crash rule is fixed: critical I/O
// failing continuously for crashThreshold kills the system.
type Config struct {
	// Seed drives which pages get touched.
	Seed int64
}

// The kernel's fixed crash rule, storage rhythm and ring size.
const (
	// crashThreshold is how long critical I/O may fail continuously
	// before the system dies, reproducing the paper's ≈81 s Ubuntu
	// time-to-crash.
	crashThreshold = 80 * time.Second
	// pageInInterval is how often the kernel must page in executable or
	// library pages from the root device.
	pageInInterval = time.Second
	// logInterval is how often syslog flushes to disk.
	logInterval = 2 * time.Second
	// dmesgCapacity bounds the kernel ring buffer, in lines.
	dmesgCapacity = 256
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// system files installed at boot. jfs has a flat root directory, so paths
// use underscores.
var systemFiles = []struct {
	name   string
	blocks int
}{
	{"bin_ls", 8},
	{"bin_cat", 8},
	{"bin_sh", 16},
	{"lib_libc", 64},
	{"etc_config", 1},
}

// Server is a booted OS instance.
type Server struct {
	fs    *jfs.FS
	clock *simclock.Virtual
	cfg   Config
	rng   *rand.Rand

	dmesg      *Dmesg
	booted     bool
	nextPageIn time.Time
	nextLog    time.Time
	logFile    *jfs.File
	logSeq     int

	failingSince time.Time
	crashed      bool
	crashErr     error
	crashedAt    time.Time

	// Stats
	PageIns, PageInErrors int64
	LogWrites, LogErrors  int64
	// Hangs counts transitions into the critical-failure state: episodes
	// where root-device I/O started failing continuously (the paper's
	// "system hangs" before the eventual panic).
	Hangs int64
}

// Boot installs the system files (if absent) and starts the server.
func Boot(fs *jfs.FS, clock *simclock.Virtual, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		fs:    fs,
		clock: clock,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		dmesg: NewDmesg(dmesgCapacity),
	}
	for _, sf := range systemFiles {
		f, err := fs.Open(sf.name)
		if errors.Is(err, jfs.ErrNotFound) {
			f, err = fs.Create(sf.name)
			if err == nil {
				content := make([]byte, sf.blocks*jfs.BlockSize)
				for i := range content {
					content[i] = byte(i * 31)
				}
				_, err = f.WriteAt(content, 0)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("osmodel: installing %s: %w", sf.name, err)
		}
		_ = f
	}
	lf, err := fs.Open("var_syslog")
	if errors.Is(err, jfs.ErrNotFound) {
		lf, err = fs.Create("var_syslog")
	}
	if err != nil {
		return nil, fmt.Errorf("osmodel: creating syslog: %w", err)
	}
	if err := fs.Sync(); err != nil {
		return nil, fmt.Errorf("osmodel: boot sync: %w", err)
	}
	s.logFile = lf
	s.booted = true
	s.nextPageIn = clock.Now().Add(pageInInterval)
	s.nextLog = clock.Now().Add(logInterval)
	s.dmesg.Logf(clock.Now(), "Linux version 4.4.0-generic (Ubuntu 16.04-like server model)")
	s.dmesg.Logf(clock.Now(), "EXT4-fs (sda1): mounted filesystem with ordered data mode")
	return s, nil
}

// Crashed reports the crash state.
func (s *Server) Crashed() (bool, error) { return s.crashed, s.crashErr }

// CrashedAt returns the virtual crash time (zero if alive).
func (s *Server) CrashedAt() time.Time { return s.crashedAt }

// PublishMetrics pushes the server's counters into a registry under the
// "osmodel." prefix (no-op on a nil registry).
func (s *Server) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Add("osmodel.page_ins", s.PageIns)
	reg.Add("osmodel.page_in_errors", s.PageInErrors)
	reg.Add("osmodel.log_writes", s.LogWrites)
	reg.Add("osmodel.log_errors", s.LogErrors)
	// The model runs no shell commands; the two keys stay at zero so
	// published snapshots keep their schema.
	reg.Add("osmodel.commands", 0)
	reg.Add("osmodel.command_errors", 0)
	reg.Add("osmodel.hangs", s.Hangs)
	reg.Add("osmodel.dmesg_lines", int64(len(s.dmesg.Lines())))
	if s.crashed {
		reg.Add("osmodel.crashes", 1)
	}
}

// Step runs the kernel's periodic work that is due at the current virtual
// time: page-ins and log flushes. The caller advances the clock between
// steps; failed I/O consumes retry time by itself.
func (s *Server) Step() {
	if !s.booted || s.crashed {
		return
	}
	now := s.clock.Now()
	if !now.Before(s.nextPageIn) {
		s.nextPageIn = now.Add(pageInInterval)
		s.pageIn()
	}
	if s.crashed {
		return
	}
	now = s.clock.Now()
	if !now.Before(s.nextLog) {
		s.nextLog = now.Add(logInterval)
		s.flushLog()
	}
	s.fs.Tick()
	// The filesystem dying underneath the OS is itself a critical
	// failure condition.
	if aborted, _ := s.fs.Aborted(); aborted {
		s.criticalFailure(fmt.Errorf("journal aborted on root device"))
	}
}

// pageIn simulates demand paging: a read of a random page of a random
// system binary. On real hardware a blocked drive turns these into the
// "Buffer I/O error on dev sda1" stream the paper reports from dmesg.
func (s *Server) pageIn() {
	s.PageIns++
	target := systemFiles[s.rng.Intn(len(systemFiles))]
	f, err := s.fs.Open(target.name)
	if err != nil {
		s.recordReadFailure(target.name, 0, err)
		return
	}
	page := make([]byte, jfs.BlockSize)
	block := int64(s.rng.Intn(target.blocks))
	if _, err := f.ReadAt(page, block*jfs.BlockSize); err != nil {
		s.recordReadFailure(target.name, block, err)
		return
	}
	s.criticalSuccess()
}

// flushLog appends a syslog line and forces it toward the disk.
func (s *Server) flushLog() {
	s.LogWrites++
	s.logSeq++
	line := fmt.Sprintf("%s server[1]: heartbeat %d\n", s.clock.Now().Format("Jan 02 15:04:05"), s.logSeq)
	if _, err := s.logFile.Append([]byte(line)); err != nil {
		s.LogErrors++
		s.recordWriteFailure("var_syslog", 0, err)
		return
	}
	s.criticalSuccess()
}

// recordReadFailure logs a failed page-in with the read-path dmesg wording
// (the kernel reports "async page read" for reads; "lost async page write"
// is the writeback message and used to be emitted here for both paths).
func (s *Server) recordReadFailure(name string, block int64, err error) {
	s.PageInErrors++
	s.dmesg.Logf(s.clock.Now(), "Buffer I/O error on dev sda1, logical block %d, async page read (%s)", block, name)
	s.criticalFailure(err)
}

// recordWriteFailure logs a failed writeback with the write-path dmesg
// wording. Write failures are counted by their own callers (LogErrors),
// not in PageInErrors.
func (s *Server) recordWriteFailure(name string, block int64, err error) {
	s.dmesg.Logf(s.clock.Now(), "Buffer I/O error on dev sda1, logical block %d, lost async page write (%s)", block, name)
	s.criticalFailure(err)
}

func (s *Server) criticalSuccess() { s.failingSince = time.Time{} }

func (s *Server) criticalFailure(cause error) {
	now := s.clock.Now()
	if s.failingSince.IsZero() {
		s.failingSince = now
		s.Hangs++
	}
	if now.Sub(s.failingSince) >= crashThreshold {
		s.crashed = true
		s.crashedAt = now
		s.crashErr = fmt.Errorf("%w: %v", ErrCrashed, cause)
		s.dmesg.Logf(now, "EXT4-fs error (device sda1): unable to read superblock")
		s.dmesg.Logf(now, "Kernel panic - not syncing: I/O failure on root device")
	}
}

// Dmesg is a bounded kernel message ring buffer.
type Dmesg struct {
	lines []string
	cap   int
}

// NewDmesg returns a ring with the given capacity.
func NewDmesg(capacity int) *Dmesg {
	return &Dmesg{cap: capacity}
}

// Logf appends a formatted, timestamped line, evicting the oldest past
// capacity.
func (d *Dmesg) Logf(ts time.Time, format string, args ...any) {
	line := fmt.Sprintf("[%10.6f] ", float64(ts.UnixNano()%1e12)/1e9) + fmt.Sprintf(format, args...)
	d.lines = append(d.lines, line)
	if len(d.lines) > d.cap {
		d.lines = d.lines[len(d.lines)-d.cap:]
	}
}

// Lines returns a copy of the buffer contents.
func (d *Dmesg) Lines() []string {
	return append([]string(nil), d.lines...)
}
