package fleet

import (
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/metrics"
)

// TrafficSpec describes a global open-loop workload: millions-of-users
// traffic compressed to a representative request count — zipfian keys
// (a hot head of popular objects) issued from every region, each region
// drawing an equal share of the requests. Generation is serial and
// seeded, so the schedule is byte-identical at any worker count.
type TrafficSpec struct {
	// Requests is the total number of client requests (default 2000).
	Requests int
	// Rate is the global open-loop arrival rate per second (default
	// 1500).
	Rate float64
	// ReadFraction is the GET share; nil means 0.9, an explicit
	// cluster.Ptr(0.0) is a pure-write workload.
	ReadFraction *float64
	// Seed drives the workload draws; nil means 7, explicit zero
	// honored.
	Seed *int64
}

// zipfS and zipfV shape key popularity: rand.NewZipf's s and v.
const (
	zipfS = 1.2
	zipfV = 1
)

func (s TrafficSpec) withDefaults() (TrafficSpec, error) {
	if s.Requests <= 0 {
		s.Requests = 2000
	}
	if s.Rate <= 0 {
		s.Rate = 1500
	}
	rf, err := cluster.ResolveReadFraction(s.ReadFraction)
	if err != nil {
		return s, fmt.Errorf("fleet: %w", err)
	}
	s.ReadFraction = rf
	if s.Seed == nil {
		s.Seed = cluster.Ptr(int64(7))
	}
	return s, nil
}

// ReqOutcome is one request's ledger entry, retained so availability and
// tail latency can be re-cut over any time window (e.g. exactly the
// attack interval) after the run.
type ReqOutcome struct {
	Arrival time.Duration
	Latency time.Duration
	Site    uint8
	Get     bool
	OK      bool
}

// SiteStats is one site's client-side request ledger.
type SiteStats struct {
	Name        string
	Gets, GetOK int
	Puts, PutOK int
}

// Result summarizes one fleet serving run.
type Result struct {
	// Request-level outcomes.
	Requests, Gets, Puts     int
	GetOK, PutOK             int
	GetFailures, PutFailures int
	// DegradedReads are GETs that needed at least one failover wave or
	// lost at least one shard op yet still completed; DegradedWrites are
	// PUTs acked with fewer than all n shards durable (but at least k).
	DegradedReads, DegradedWrites int
	// CorruptReads counts GETs acknowledged OK whose reassembled bytes
	// would not match the object's true content. Every accepted shard is
	// byte-verified against the encoded stripe at the storage node, so
	// this is non-zero only if the coder itself mis-decodes — the fleet
	// fails a read rather than serving rotted bytes.
	CorruptReads int
	// ChecksumMisses counts shard reads rejected because the returned
	// bytes did not match the stripe (Drives.ShardOp's checksum): non-zero
	// only when a node holds bytes other than its shard, e.g. a sector
	// corrupted under vibration.
	ChecksumMisses int
	// MinPutShards is the smallest durable-shard count among acked PUTs.
	MinPutShards int

	// Shard-level accounting.
	ShardReads, ShardWrites           int
	ShardReadErrors, ShardWriteErrors int

	// Robustness machinery.
	CrossSiteOps      int // shard ops that crossed a WAN link
	FailoverWaves     int // extra GET waves beyond the initial k
	HedgedRequests    int // GETs that issued a speculative extra source
	ShedRequests      int // always 0: the gateway sheds no request before its deadline
	DeadlineExhausted int // GETs that ran out their deadline budget
	WANDrops          int // ops swallowed by a down link (observed at +Timeout)
	FastFails         int // ops shed instantly by an open link breaker
	BreakerOpens      int // closed→open transitions across all links
	BreakerCloses     int // open→closed transitions across all links

	// Throughput and latency. Quantiles are time-to-verdict over ALL
	// requests: a failed request counts at the moment the gateway gave
	// up on it, so unavailability cannot flatter the tail — a placement
	// that hard-fails its slow requests does not get to drop them from
	// the latency pool.
	BytesServed int64
	Span        time.Duration
	GoodputMBps float64
	P50, P99    time.Duration
	Max         time.Duration

	// PerSite cuts the ledger by the requesting client's region.
	PerSite []SiteStats
	// Outcomes is the full per-request ledger (arrival order).
	Outcomes []ReqOutcome
}

// GetAvailability is the fraction of GETs served.
func (r Result) GetAvailability() float64 {
	if r.Gets == 0 {
		return 1
	}
	return float64(r.GetOK) / float64(r.Gets)
}

// PutAvailability is the fraction of PUTs acked.
func (r Result) PutAvailability() float64 {
	if r.Puts == 0 {
		return 1
	}
	return float64(r.PutOK) / float64(r.Puts)
}

// WindowStats re-cuts the ledger over one time window.
type WindowStats struct {
	Gets, GetOK int
	Puts, PutOK int
	P50, P99    time.Duration
}

// GetAvailability is the windowed GET served fraction.
func (w WindowStats) GetAvailability() float64 {
	if w.Gets == 0 {
		return 1
	}
	return float64(w.GetOK) / float64(w.Gets)
}

// Window cuts availability and latency quantiles over requests arriving
// in [from, to) — e.g. exactly the facility-attack interval, where the
// headline aware-vs-naive gap lives.
func (r Result) Window(from, to time.Duration) WindowStats {
	var w WindowStats
	lat := make([]time.Duration, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Arrival < from || o.Arrival >= to {
			continue
		}
		if o.Get {
			w.Gets++
			if o.OK {
				w.GetOK++
			}
		} else {
			w.Puts++
			if o.OK {
				w.PutOK++
			}
		}
		// Time-to-verdict: failures count at the moment they failed.
		lat = append(lat, o.Latency)
	}
	w.P50, w.P99, _ = metrics.LatencyQuantiles(lat)
	return w
}

// genRequests fills f.reqs with the serial, seeded workload schedule.
func (f *Fleet) genRequests(spec TrafficSpec) {
	rng := rand.New(rand.NewSource(*spec.Seed))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(f.cfg.Objects-1))
	S := len(f.cfg.Sites)
	deadline := int64(f.cfg.Resilience.Deadline)
	if cap(f.reqs) < spec.Requests {
		f.reqs = make([]reqState, spec.Requests)
	}
	f.reqs = f.reqs[:spec.Requests]
	for i := range f.reqs {
		at := cluster.ArrivalNS(i, spec.Rate)
		// Every region draws an equal share.
		site := regionOf(rng.Float64(), S)
		var flags uint8
		if rng.Float64() >= *spec.ReadFraction {
			flags = fPut
		}
		f.reqs[i] = reqState{
			arrival:  at,
			deadline: at + deadline,
			end:      at,
			object:   int32(zipf.Uint64()),
			site:     uint8(site),
			flags:    flags,
		}
	}
}

// regionOf maps a uniform draw u in [0, 1) to one of S equally likely
// regions.
func regionOf(u float64, S int) int {
	return min(int(u*float64(S)), S-1)
}
