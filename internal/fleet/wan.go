package fleet

import (
	"fmt"
	"math"
	"sort"
	"time"

	"deepnote/internal/parallel"
	"deepnote/internal/sched"
)

// WANConfig models the inter-site network: a full mesh of symmetric
// links, each with the base RTT wanRTT, a uniform ±wanJitter jitter, and
// a wanGbitPerSec bandwidth that serializes shard transfers. Faults are
// declarative time windows — a pure function of the virtual clock, so the
// same spec yields the same byte-identical run at any worker count (the
// faultinj idiom, lifted to links).
type WANConfig struct {
	// Faults are the injected WAN faults.
	Faults []Fault
}

// The WAN's fixed link settings.
const (
	// wanRTT is the round-trip time between any two sites.
	wanRTT = 30 * time.Millisecond
	// wanGbitPerSec is every link's bandwidth: a shard transfer adds
	// size·8/wanGbitPerSec ns of serialization delay.
	wanGbitPerSec = 10
	// wanJitter is the uniform ± jitter on every link's RTT, drawn per
	// op by hashing (link seed, op sequence) — never an ordered RNG
	// stream, so issue order cannot perturb other draws.
	wanJitter = 3 * time.Millisecond
	// wanTimeout is how long the gateway waits before declaring an op
	// swallowed by a down link. Drops are observed at issue+wanTimeout
	// and feed the link's circuit breaker.
	wanTimeout = 200 * time.Millisecond
)

// validate rejects WAN faults the model cannot serve: a brownout factor
// that is NaN, infinite or negative (zero still means the default), a
// fault naming a site outside [0, sites), an unknown fault kind, and a
// negative duration. Any of these would otherwise serve silently — a NaN
// factor as NaN delays, a fault on a missing site as no fault at all.
func (w WANConfig) validate(sites int) error {
	badSite := func(s int) bool { return s < 0 || s >= sites }
	for i, fa := range w.Faults {
		switch fa.Kind {
		case LinkFlap, Brownout:
			if badSite(fa.B) {
				return fmt.Errorf("WAN fault %d (%s): site B=%d outside [0, %d)", i, fa.Kind, fa.B, sites)
			}
		case SitePartition:
		default:
			return fmt.Errorf("WAN fault %d: unknown kind %s", i, fa.Kind)
		}
		if badSite(fa.A) {
			return fmt.Errorf("WAN fault %d (%s): site A=%d outside [0, %d)", i, fa.Kind, fa.A, sites)
		}
		if fa.Duration < 0 {
			return fmt.Errorf("WAN fault %d (%s): negative Duration %v", i, fa.Kind, fa.Duration)
		}
		if math.IsNaN(fa.Factor) || math.IsInf(fa.Factor, 0) || fa.Factor < 0 {
			return fmt.Errorf("WAN fault %d (%s): Factor %v must be finite and non-negative", i, fa.Kind, fa.Factor)
		}
	}
	return nil
}

// FaultKind classifies an injected WAN fault.
type FaultKind int

const (
	// LinkFlap takes one link (A↔B) hard down for the window.
	LinkFlap FaultKind = iota
	// SitePartition takes every link touching site A down — the
	// facility is unreachable, though its local clients still hit its
	// local shards.
	SitePartition
	// Brownout multiplies the A↔B link's RTT by Factor for the window
	// (congestion, not loss).
	Brownout
)

func (k FaultKind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case SitePartition:
		return "site-partition"
	case Brownout:
		return "brownout"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one declarative WAN fault window, active on
// [Start, Start+Duration) of the serving timeline. New rejects a fault
// of unknown kind, with a negative Duration, or naming a site outside
// the fleet.
type Fault struct {
	Kind FaultKind
	// A and B name the site pair (LinkFlap, Brownout); SitePartition
	// uses only A.
	A, B int
	// Start and Duration bound the window.
	Start    time.Duration
	Duration time.Duration
	// Factor is the Brownout RTT multiplier (default 4); a negative or
	// non-finite value is rejected.
	Factor float64
}

func (fa Fault) active(at int64) bool {
	return at >= int64(fa.Start) && at < int64(fa.Start+fa.Duration)
}

func (fa Fault) hits(a, b int) bool {
	if fa.Kind == SitePartition {
		return a == fa.A || b == fa.A
	}
	return (a == fa.A && b == fa.B) || (a == fa.B && b == fa.A)
}

// span is one half-open time window.
type span struct{ from, to int64 }

// link is one undirected site pair plus its gateway-side circuit
// breaker. Breaker state only ever mutates in the serial combine step,
// folded over outcomes sorted by observation time — never during
// concurrent node drains. Because planning issues ops at virtual times
// the fold has already moved past, the breaker keeps its shedding
// decisions as a history of windows: every open (and every failed-probe
// re-arm) at time T sheds the ops issued in [T, T+cooldown), whenever
// they are planned. Queries against history are order-independent, so
// epoch granularity cannot perturb them.
type link struct {
	a, b int
	seed int64

	open bool
	strk int
	// shed is the breaker's window history, sorted by from; every window
	// lasts breakerCooldown (see breakerAllows).
	shed []span
}

func (f *Fleet) buildLinks() {
	s := len(f.cfg.Sites)
	f.linkAt = make([]int16, s*s)
	for i := range f.linkAt {
		f.linkAt[i] = -1
	}
	for a := 0; a < s; a++ {
		for b := a + 1; b < s; b++ {
			idx := int16(len(f.links))
			f.linkAt[a*s+b], f.linkAt[b*s+a] = idx, idx
			f.links = append(f.links, link{a: a, b: b, seed: parallel.SeedFor(f.wanSeed, a*s+b)})
		}
	}
}

// linkIdx returns the link index for a site pair (a != b).
func (f *Fleet) linkIdx(a, b int) int {
	return int(f.linkAt[a*len(f.cfg.Sites)+b])
}

// linkDown reports whether a flap or partition has the link down at
// offset `at` on the serving timeline.
func (f *Fleet) linkDown(li int, at int64) bool {
	l := &f.links[li]
	for _, fa := range f.cfg.WAN.Faults {
		if fa.Kind != Brownout && fa.active(at) && fa.hits(l.a, l.b) {
			return true
		}
	}
	return false
}

// linkFactor returns the brownout RTT multiplier at offset `at` (1 when
// no brownout is active; concurrent brownouts compound).
func (f *Fleet) linkFactor(li int, at int64) float64 {
	l := &f.links[li]
	factor := 1.0
	for _, fa := range f.cfg.WAN.Faults {
		if fa.Kind == Brownout && fa.active(at) && fa.hits(l.a, l.b) {
			mul := fa.Factor
			if mul <= 0 {
				mul = 4
			}
			factor *= mul
		}
	}
	return factor
}

// wanDelays samples the outbound and return delays for op opSeq crossing
// link li at offset `at`. The jitter draw hashes (link seed, opSeq), so
// it is independent of dispatch order; brownouts scale the whole RTT;
// bandwidth serialization rides on the payload-bearing direction (out
// for PUT, return for GET).
func (f *Fleet) wanDelays(li int, opSeq uint64, at int64, put bool) (out, ret int64) {
	l := &f.links[li]
	u := sched.HashUnit(uint64(l.seed), opSeq)
	rtt := int64(wanRTT) + int64((2*u-1)*float64(wanJitter))
	rtt = int64(float64(rtt) * f.linkFactor(li, at))
	if rtt < 0 {
		rtt = 0
	}
	ser := int64(float64(f.shardSize) * 8 / wanGbitPerSec)
	out, ret = rtt/2, rtt-rtt/2
	if put {
		out += ser
	} else {
		ret += ser
	}
	return out, ret
}

// breakerAllows decides whether the gateway sends an op issued at
// virtual time `at` over link li: it is shed iff `at` falls inside a
// recorded shed window. Ops past a window's end pass as half-open
// probes; a probe that fails re-arms a fresh window. Every window of a
// serve lasts breakerCooldown and the history is sorted by start, so the
// last window starting at or before `at` is the only one that can
// contain it. Queries may go backwards in time (planning issues at
// virtual times the fold has already passed), so this searches rather
// than keeping a cursor.
func (f *Fleet) breakerAllows(li int, at int64) bool {
	shed := f.links[li].shed
	i := sort.Search(len(shed), func(i int) bool { return shed[i].from > at })
	return i == 0 || at >= shed[i-1].to
}

// breakerObserve folds one op outcome into link li's breaker. Called
// only from the serial combine step in (observation time, op index)
// order. Opens count only on the closed→open transition; a failed probe
// re-arms the cooldown without a fresh open (one outage, one incident —
// the netstore breaker contract).
func (f *Fleet) breakerObserve(li int, end int64, ok bool, res *Result) {
	l := &f.links[li]
	if ok {
		l.strk = 0
		if l.open {
			l.open = false
			res.BreakerCloses++
		}
		return
	}
	l.strk++
	if l.open {
		l.addShed(end, int64(breakerCooldown))
		return
	}
	if l.strk >= breakerThreshold {
		l.open = true
		l.addShed(end, int64(breakerCooldown))
		res.BreakerOpens++
	}
}

// addShed records the shed window [from, from+cooldown), keeping l.shed
// sorted by start. Folds within an epoch observe in time order, so the
// window almost always lands at the tail; one that starts before an
// earlier epoch's windows moves back past them.
func (l *link) addShed(from, cooldown int64) {
	i := len(l.shed)
	l.shed = append(l.shed, span{})
	for ; i > 0 && l.shed[i-1].from > from; i-- {
		l.shed[i] = l.shed[i-1]
	}
	l.shed[i] = span{from, from + cooldown}
}

// resetBreakers returns every link to closed before a serve run.
func (f *Fleet) resetBreakers() {
	for i := range f.links {
		f.links[i].open = false
		f.links[i].strk = 0
		f.links[i].shed = f.links[i].shed[:0]
	}
}
