// Package fleet lifts the single-facility cluster into a geo-distributed
// multi-facility tier: several cluster.Layout sites connected by a
// deterministic WAN model (jittered link latency, bandwidth
// serialization, injected link flaps and brownouts),
// with a cross-facility placement layer that spreads erasure shards
// across acoustic blast radii within a site and across sites.
//
// The fleet runs on the cluster tier's drive substrate (cluster.Drives)
// with one site per SiteSpec: the per-drive stacks, cached stripes,
// per-site speaker gains and attack schedules, preload, and epoch
// drain are the cluster's own, so both tiers agree bit for bit on what a
// speaker does to a drive. Every node drains its own event queue on its
// own virtual clock, cross-node causality is resolved at epoch
// boundaries, and every WAN draw is a pure hash of (seed, event) — so
// results are byte-identical at any worker count. This package keeps
// only what is fleet-specific: the WAN, placement, the gateway, and its
// request ledger. Clients in every region issue an equal share of one
// global zipfian workload. Robustness is the point of the tier: cross-site
// failover reads under per-request deadline budgets, doubling backoff
// with tail-triggered hedging, and a circuit breaker per WAN link; a
// request whose facility goes dark mid-attack keeps failing over until
// its deadline budget runs out.
package fleet

import (
	"fmt"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
)

// SiteSpec is one facility: a named cluster layout in its own water body
// (sites are acoustically isolated from each other — only the WAN and
// the placement couple them).
type SiteSpec struct {
	Name   string
	Layout cluster.Layout
}

// Resilience tunes the fleet gateway's robustness machinery.
type Resilience struct {
	// Deadline is the per-request issue budget: no failover wave is
	// issued after arrival+Deadline, and a wave whose doubled backoff
	// would overshoot the deadline is clamped to a final attempt at the
	// deadline edge (the blockdev.Retrier boundary contract). Default
	// 500 ms.
	Deadline time.Duration
}

func (r Resilience) withDefaults() Resilience {
	if r.Deadline <= 0 {
		r.Deadline = 500 * time.Millisecond
	}
	return r
}

// The gateway's fixed failover and breaker settings.
const (
	// retryBackoff is the sleep before the first failover wave; it
	// doubles each wave.
	retryBackoff = 15 * time.Millisecond
	// hedgeAfter triggers hedging: a failover wave issued after the
	// request has already been in flight longer than this requests one
	// source beyond what it strictly needs.
	hedgeAfter = 120 * time.Millisecond
	// breakerThreshold opens a WAN link's circuit breaker after this
	// many consecutive failed ops over the link.
	breakerThreshold = 6
	// breakerCooldown is how long an open breaker sheds ops before
	// letting a probe through.
	breakerCooldown = 300 * time.Millisecond
)

// Config sizes the fleet.
type Config struct {
	// Sites are the facilities (at least two).
	Sites []SiteSpec
	// DataShards (k) and ParityShards (m) set the erasure code
	// (defaults 4+2). Every object is striped k-of-n across nodes
	// chosen by Placement.
	DataShards, ParityShards int
	// Objects is the global keyspace size (default 64).
	Objects int
	// ObjectSize is the client object size in bytes (default 32 KiB).
	ObjectSize int
	// Placement chooses the shard-spreading policy (default
	// PlacementAttackAware).
	Placement Placement
	// WAN models the inter-site network.
	WAN WANConfig
	// Resilience tunes the gateway's failover machinery.
	Resilience Resilience
	// Seed drives every stochastic element; sub-seeds are derived with
	// parallel.SeedFor and per-op draws with sched.Hash64, so results
	// are identical at any worker count. nil means 1; an explicit
	// cluster.Ptr(int64(0)) is honored.
	Seed *int64
	// Workers bounds the fan-out across nodes (≤ 0 = all CPUs). Worker
	// count never changes results, only wall-clock time.
	Workers int
}

func (c Config) withDefaults() Config {
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
		c.ObjectSize = 32 << 10
	}
	if c.Seed == nil {
		c.Seed = cluster.Ptr(int64(1))
	}
	c.Resilience = c.Resilience.withDefaults()
	return c
}

func (c Config) seed() int64 { return *c.Seed }

// Fleet is the assembled multi-facility store: a drive substrate with
// one site per SiteSpec, plus the WAN, placement, and gateway.
type Fleet struct {
	cfg       Config
	coder     *cluster.Coder
	shardSize int
	drives    *cluster.Drives

	links   []link
	linkAt  []int16 // linkAt[a*S+b] = link index, -1 on the diagonal
	wanSeed int64

	last Result

	// Serving buffers, reused across Serve calls. ops is one epoch's op
	// arena, refilled from slot 0 every epoch; opSeq numbers the serve's
	// ops across epochs, for the WAN hash.
	reqs           []reqState
	ops            []wanOp
	opSeq          uint64
	tally          []pushTally // per node, for enqueue
	pendingBuf     []int32
	orderBuf       []uint16
	epochSort      []int32
	latGet, latPut []time.Duration
}

// New assembles the fleet.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Sites) < 2 {
		return nil, fmt.Errorf("fleet: need at least 2 sites, got %d", len(cfg.Sites))
	}
	if err := cfg.WAN.validate(len(cfg.Sites)); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	cfg = cfg.withDefaults()
	coder, err := cluster.NewCoder(cfg.DataShards, cfg.ParityShards)
	if err != nil {
		return nil, err
	}
	n := coder.TotalShards()
	if n > 32 {
		// The serving arena tracks confirmed shards in a 32-bit mask.
		return nil, fmt.Errorf("fleet: %d total shards exceeds the 32-shard stripe limit", n)
	}
	layouts := make([]cluster.Layout, len(cfg.Sites))
	for s, site := range cfg.Sites {
		if err := site.Layout.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: site %d (%s): %w", s, site.Name, err)
		}
		if C, min := len(site.Layout.Containers), minContainers(cfg.Placement, n, len(cfg.Sites)); C < min {
			return nil, fmt.Errorf("fleet: site %d (%s) has %d containers, %s placement needs >= %d",
				s, site.Name, C, cfg.Placement, min)
		}
		layouts[s] = site.Layout
	}
	drives, err := cluster.NewDrives(cluster.DriveSpec{
		Sites:        layouts,
		PerContainer: 1,
		Coder:        coder,
		Objects:      cfg.Objects,
		ObjectSize:   cfg.ObjectSize,
		Seed:         cfg.seed(),
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:       cfg,
		coder:     coder,
		shardSize: coder.ShardSize(cfg.ObjectSize),
		drives:    drives,
		wanSeed:   parallel.SeedFor(cfg.seed(), 1_000_003),
		tally:     make([]pushTally, len(drives.Stacks)),
	}
	f.buildLinks()
	return f, nil
}

// SetAttack programs site s's acoustic attack: steps sorted by offset;
// before the first step (and with nil steps) every speaker at the site
// is silent. Vibrations are superposed up front from the cached
// per-(speaker, node) transfer functions.
func (f *Fleet) SetAttack(s int, steps []cluster.ScheduleStep) error {
	if s < 0 || s >= len(f.cfg.Sites) {
		return fmt.Errorf("fleet: SetAttack site %d outside [0, %d)", s, len(f.cfg.Sites))
	}
	f.drives.SetSchedule(s, steps)
	return nil
}

// Preload writes every shard to its placement node before serving starts
// (speakers silent, WAN idle — preload is an out-of-band bulk load), then
// aligns all node clocks to the slowest.
func (f *Fleet) Preload() error {
	if err := f.drives.Preload(f.shardNode); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// PublishMetrics pushes the fleet's serving counters (under the "fleet."
// prefix) plus every node's hdd/blockdev/netstore counters into a
// registry. No-op on nil; metrics never touch clocks or draws, so
// results are identical with metrics on or off.
func (f *Fleet) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r := f.last
	reg.Add("fleet.requests", int64(r.Requests))
	reg.Add("fleet.gets", int64(r.Gets))
	reg.Add("fleet.puts", int64(r.Puts))
	reg.Add("fleet.get_failures", int64(r.GetFailures))
	reg.Add("fleet.put_failures", int64(r.PutFailures))
	reg.Add("fleet.degraded_reads", int64(r.DegradedReads))
	reg.Add("fleet.degraded_writes", int64(r.DegradedWrites))
	reg.Add("fleet.corrupt_reads", int64(r.CorruptReads))
	reg.Add("fleet.checksum_misses", int64(r.ChecksumMisses))
	reg.Add("fleet.shard_reads", int64(r.ShardReads))
	reg.Add("fleet.shard_writes", int64(r.ShardWrites))
	reg.Add("fleet.shard_read_errors", int64(r.ShardReadErrors))
	reg.Add("fleet.shard_write_errors", int64(r.ShardWriteErrors))
	reg.Add("fleet.cross_site_ops", int64(r.CrossSiteOps))
	reg.Add("fleet.failover_waves", int64(r.FailoverWaves))
	reg.Add("fleet.hedged_requests", int64(r.HedgedRequests))
	reg.Add("fleet.shed_requests", int64(r.ShedRequests))
	reg.Add("fleet.deadline_exhausted", int64(r.DeadlineExhausted))
	reg.Add("fleet.wan_drops", int64(r.WANDrops))
	reg.Add("fleet.wan_fast_fails", int64(r.FastFails))
	reg.Add("fleet.breaker_opens", int64(r.BreakerOpens))
	reg.Add("fleet.breaker_closes", int64(r.BreakerCloses))
	reg.Add("fleet.bytes_served", r.BytesServed)
	reg.MaxGauge("fleet.goodput_mbps", r.GoodputMBps)
	reg.MaxGauge("fleet.p99_ms", float64(r.P99)/1e6)
	for _, l := range f.latGet {
		reg.Observe("fleet.get_latency_ns", int64(l))
	}
	for _, l := range f.latPut {
		reg.Observe("fleet.put_latency_ns", int64(l))
	}
	f.drives.PublishMetrics(reg)
}
