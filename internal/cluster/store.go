package cluster

import (
	"fmt"
	"time"

	"deepnote/internal/metrics"
)

// Ptr returns a pointer to v: the literal-friendly way to set the
// optional config fields that distinguish "unset" (nil) from an explicit
// zero, e.g. TrafficSpec{ReadFraction: cluster.Ptr(0.0)} for a
// write-only mix or Config{Seed: cluster.Ptr(int64(0))} for seed zero.
func Ptr[T any](v T) *T { return &v }

// Config sizes the cluster.
type Config struct {
	// Layout places the containers (failure domains) and attacker
	// speakers.
	Layout Layout
	// DrivesPerContainer is how many drives each container hosts
	// (default 1; drives occupy tower slots bottom-up).
	DrivesPerContainer int
	// DataShards (k) and ParityShards (m) set the erasure code: every
	// object is striped k-of-n with n = k+m, one shard per container
	// (defaults 4+2). The layout must have at least n containers.
	DataShards, ParityShards int
	// Objects is the keyspace size (default 64).
	Objects int
	// ObjectSize is the client object size in bytes (default 64 KiB);
	// shards are ObjectSize/k rounded up.
	ObjectSize int
	// Seed drives every stochastic element (per-drive mechanics, network
	// jitter, traffic); sub-seeds are derived with parallel.SeedFor so
	// results are identical at any worker count. nil means the default
	// (1); an explicit zero — Ptr(int64(0)) — is honored and reproduces
	// like any other seed.
	Seed *int64
	// Workers bounds the fan-out across drives (≤ 0 = all CPUs). Worker
	// count never changes results, only wall-clock time.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.DrivesPerContainer <= 0 {
		c.DrivesPerContainer = 1
	}
	if c.DataShards <= 0 {
		c.DataShards = 4
	}
	if c.ParityShards <= 0 {
		c.ParityShards = 2
	}
	if c.Objects <= 0 {
		c.Objects = 64
	}
	if c.ObjectSize <= 0 {
		c.ObjectSize = 64 << 10
	}
	if c.Seed == nil {
		c.Seed = Ptr(int64(1))
	}
	return c
}

// seed returns the resolved root seed; call only after withDefaults.
func (c Config) seed() int64 { return *c.Seed }

// driveBufs are one drive's per-epoch serving buffers, written only by
// that drive's dispatch.
type driveBufs struct {
	// results accumulates one record per dispatched shard op within an
	// epoch; the engine combines them serially and truncates. Reused.
	results []opResult
}

// ScheduleStep keys the attacker's speakers at an offset from the start
// of serving: Active[s] is whether layout speaker s is emitting from At
// onward (nil = all silent).
type ScheduleStep struct {
	At     time.Duration
	Active []bool
}

// Cluster is the assembled datacenter: n-shard erasure-coded object
// store over a one-site drive substrate.
type Cluster struct {
	cfg    Config
	coder  *Coder
	drives *Drives
	// bufs[di] is drive di's buffers, allocated apart so concurrently
	// draining drives never share a cache line.
	bufs []*driveBufs

	// defense is the compiled closed-loop defense plan (nil = off). See
	// SetDefense in defense.go.
	defense *defenseState

	last ServeResult
	// latencies of successful client requests, for histograms.
	latGet, latPut []time.Duration

	// Serving-engine buffers, reused across Serve calls so steady-state
	// runs do not reallocate the arenas.
	reqsBuf    []reqState
	pendingBuf [2][]int32
	failedBuf  []failRec
	repairBuf  []repairOp
}

// New assembles a cluster. Every drive gets an independently seeded
// mechanics RNG and network-jitter RNG derived from Config.Seed.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	coder, err := NewCoder(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, err
	}
	if n, ct := coder.TotalShards(), len(cfg.Layout.Containers); ct < n {
		return nil, fmt.Errorf("cluster: %d containers cannot hold %d-shard stripes in distinct failure domains", ct, n)
	}
	drives, err := NewDrives(DriveSpec{
		Sites:        []Layout{cfg.Layout},
		PerContainer: cfg.DrivesPerContainer,
		Coder:        coder,
		Objects:      cfg.Objects,
		ObjectSize:   cfg.ObjectSize,
		Seed:         cfg.seed(),
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		coder:  coder,
		drives: drives,
		bufs:   make([]*driveBufs, len(drives.Stacks)),
	}
	for di := range c.bufs {
		c.bufs[di] = new(driveBufs)
	}
	return c, nil
}

// shardDrive maps (object, shard) to a drive index. Shard j of object o
// lives in container (o+j) mod C — n consecutive distinct containers, so
// each stripe spans n failure domains — on the drive in slot
// (o / C) mod drivesPerContainer. The shard is stored as local object o
// on that drive's netstore (one shard per object per container, so local
// IDs never collide).
func (c *Cluster) shardDrive(o, j int) int {
	ct := (o + j) % len(c.cfg.Layout.Containers)
	slot := (o / len(c.cfg.Layout.Containers)) % c.cfg.DrivesPerContainer
	return ct*c.cfg.DrivesPerContainer + slot
}

// SetSchedule programs the attack: steps sorted by offset; before the
// first step (and with no steps) every speaker is silent. Vibrations are
// superposed up front from the stored speaker gains (see
// Drives.SetSchedule).
func (c *Cluster) SetSchedule(steps []ScheduleStep) { c.drives.SetSchedule(0, steps) }

// Preload writes every object's stripe before serving starts (speakers
// silent), so GETs hit allocated storage. Drive timelines advance
// independently; the serving origin is aligned afterwards.
func (c *Cluster) Preload() error {
	if err := c.drives.Preload(c.shardDrive); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// PublishMetrics pushes the cluster's serving counters (under the
// "cluster." prefix) and every drive stack's hdd/blockdev/netstore
// counters into a registry. No-op on nil. Metrics never touch the
// virtual clocks or RNGs, so results are identical with metrics on or
// off.
func (c *Cluster) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r := c.last
	reg.Add("cluster.requests", int64(r.Requests))
	reg.Add("cluster.gets", int64(r.Gets))
	reg.Add("cluster.puts", int64(r.Puts))
	reg.Add("cluster.get_failures", int64(r.GetFailures))
	reg.Add("cluster.put_failures", int64(r.PutFailures))
	reg.Add("cluster.degraded_reads", int64(r.DegradedReads))
	reg.Add("cluster.degraded_writes", int64(r.DegradedWrites))
	reg.Add("cluster.repair_writes", int64(r.RepairWrites))
	reg.Add("cluster.repair_failures", int64(r.RepairFailures))
	reg.Add("cluster.corrupt_reads", int64(r.CorruptReads))
	reg.Add("cluster.shard_reads", int64(r.ShardReads))
	reg.Add("cluster.shard_writes", int64(r.ShardWrites))
	reg.Add("cluster.shard_read_errors", int64(r.ShardReadErrors))
	reg.Add("cluster.shard_write_errors", int64(r.ShardWriteErrors))
	reg.Add("cluster.steered_gets", int64(r.SteeredGets))
	reg.Add("cluster.replica_reads", int64(r.ReplicaReads))
	reg.Add("cluster.replica_read_errors", int64(r.ReplicaReadErrors))
	reg.Add("cluster.evac_writes", int64(r.EvacWrites))
	reg.Add("cluster.evac_failures", int64(r.EvacFailures))
	reg.Add("cluster.evac_skipped", int64(r.EvacSkipped))
	reg.Add("cluster.bytes_served", r.BytesServed)
	reg.MaxGauge("cluster.goodput_mbps", r.GoodputMBps)
	reg.MaxGauge("cluster.p99_ms", float64(r.P99)/1e6)
	for _, l := range c.latGet {
		reg.Observe("cluster.get_latency_ns", int64(l))
	}
	for _, l := range c.latPut {
		reg.Observe("cluster.put_latency_ns", int64(l))
	}
	c.drives.PublishMetrics(reg)
}
