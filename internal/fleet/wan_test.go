package fleet

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func testWANFleet(t *testing.T, faults ...Fault) *Fleet {
	t.Helper()
	cfg := testFleetConfig(PlacementAttackAware, 0)
	cfg.WAN.Faults = faults
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFaultWindowsGateLinks(t *testing.T) {
	flap := Fault{Kind: LinkFlap, A: 0, B: 1, Start: 100 * time.Millisecond, Duration: 50 * time.Millisecond}
	part := Fault{Kind: SitePartition, A: 2, Start: 300 * time.Millisecond, Duration: 100 * time.Millisecond}
	f := testWANFleet(t, flap, part)
	l01, l02, l12 := f.linkIdx(0, 1), f.linkIdx(0, 2), f.linkIdx(1, 2)
	if l01 != f.linkIdx(1, 0) {
		t.Fatal("link index not symmetric")
	}
	at := func(d time.Duration) int64 { return int64(d) }
	// The flap downs exactly its own link, half-open boundary semantics.
	if f.linkDown(l01, at(99*time.Millisecond)) || !f.linkDown(l01, at(100*time.Millisecond)) {
		t.Fatal("flap start boundary wrong")
	}
	if f.linkDown(l01, at(150*time.Millisecond)) {
		t.Fatal("flap did not lift at its end")
	}
	if f.linkDown(l02, at(120*time.Millisecond)) || f.linkDown(l12, at(120*time.Millisecond)) {
		t.Fatal("flap leaked onto other links")
	}
	// The partition downs every link touching site 2 and nothing else.
	if !f.linkDown(l02, at(350*time.Millisecond)) || !f.linkDown(l12, at(350*time.Millisecond)) {
		t.Fatal("partition missed a link touching the site")
	}
	if f.linkDown(l01, at(350*time.Millisecond)) {
		t.Fatal("partition downed an unrelated link")
	}
}

func TestBrownoutScalesDelaysAndCompounds(t *testing.T) {
	b1 := Fault{Kind: Brownout, A: 0, B: 1, Duration: time.Second, Factor: 3}
	b2 := Fault{Kind: Brownout, A: 0, B: 1, Start: 500 * time.Millisecond, Duration: time.Second, Factor: 2}
	f := testWANFleet(t, b1, b2)
	li := f.linkIdx(0, 1)
	if got := f.linkFactor(li, int64(100*time.Millisecond)); got != 3 {
		t.Fatalf("single brownout factor %v, want 3", got)
	}
	if got := f.linkFactor(li, int64(700*time.Millisecond)); got != 6 {
		t.Fatalf("overlapping brownouts factor %v, want 6 (compounded)", got)
	}
	if got := f.linkFactor(li, int64(2*time.Second)); got != 1 {
		t.Fatalf("expired brownout factor %v, want 1", got)
	}
	// A browned-out op is slower than the same op healthy.
	hOut, hRet := f.wanDelays(li, 7, int64(2*time.Second), false)
	bOut, bRet := f.wanDelays(li, 7, int64(100*time.Millisecond), false)
	if bOut+bRet <= hOut+hRet {
		t.Fatalf("brownout did not slow the op: %d vs %d", bOut+bRet, hOut+hRet)
	}
}

func TestWANDelaysArePureAndBounded(t *testing.T) {
	f := testWANFleet(t)
	li := f.linkIdx(1, 2)
	out1, ret1 := f.wanDelays(li, 12345, 0, false)
	out2, ret2 := f.wanDelays(li, 12345, 0, false)
	if out1 != out2 || ret1 != ret2 {
		t.Fatal("same (link, op) hash produced different delays")
	}
	ser := int64(float64(f.shardSize) * 8 / wanGbitPerSec)
	for op := uint64(0); op < 200; op++ {
		out, ret := f.wanDelays(li, op, 0, false)
		rtt := out + ret - ser
		if lo, hi := int64(wanRTT-wanJitter), int64(wanRTT+wanJitter); rtt < lo || rtt > hi {
			t.Fatalf("op %d: rtt %d outside [%d, %d]", op, rtt, lo, hi)
		}
		// GETs carry the payload on the return path, PUTs outbound.
		pOut, pRet := f.wanDelays(li, op, 0, true)
		if pOut+pRet != out+ret {
			t.Fatalf("op %d: direction changed total delay", op)
		}
		if pOut <= out || pRet >= ret {
			t.Fatalf("op %d: serialization on the wrong direction", op)
		}
	}
}

func TestLinkBreakerLifecycle(t *testing.T) {
	f := testWANFleet(t)
	li := f.linkIdx(0, 1)
	var res Result
	ms := int64(time.Millisecond)
	// Consecutive failures up to the threshold open the breaker once.
	for i := 0; i < breakerThreshold; i++ {
		if !f.breakerAllows(li, int64(i)*ms) {
			t.Fatalf("breaker refused op %d while closed", i)
		}
		f.breakerObserve(li, int64(i)*ms, false, &res)
	}
	if !f.links[li].open || res.BreakerOpens != 1 {
		t.Fatalf("breaker open=%v opens=%d after threshold failures", f.links[li].open, res.BreakerOpens)
	}
	// The open's shed window starts at the observation that tripped it.
	lastFrom := func() int64 { sh := f.links[li].shed; return sh[len(sh)-1].from }
	openedAt := lastFrom()
	cool := int64(breakerCooldown)
	// Before the cooldown: shed. After: a probe passes.
	if f.breakerAllows(li, openedAt+cool-1) {
		t.Fatal("op allowed before cooldown elapsed")
	}
	if !f.breakerAllows(li, openedAt+cool) {
		t.Fatal("probe refused after cooldown")
	}
	// A failed probe re-arms the cooldown without a second open.
	f.breakerObserve(li, openedAt+cool+ms, false, &res)
	if !f.links[li].open || res.BreakerOpens != 1 {
		t.Fatalf("failed probe: open=%v opens=%d, want re-opened with 1 open", f.links[li].open, res.BreakerOpens)
	}
	if lastFrom() != openedAt+cool+ms {
		t.Fatal("failed probe did not re-arm the cooldown")
	}
	// A successful probe closes it.
	f.breakerObserve(li, openedAt+2*cool+2*ms, true, &res)
	if f.links[li].open || res.BreakerCloses != 1 {
		t.Fatalf("successful probe: open=%v closes=%d", f.links[li].open, res.BreakerCloses)
	}
	// Other links were never touched.
	if f.links[f.linkIdx(0, 2)].open || f.links[f.linkIdx(1, 2)].open {
		t.Fatal("breaker state leaked onto other links")
	}
}

// TestBreakerEngagesDuringServe: a long flap must open the 0↔1 breaker
// mid-run (drops feed it), fast-fail ops while open, and close it again
// after the flap lifts — observable in the run's counters.
func TestBreakerEngagesDuringServe(t *testing.T) {
	cfg := testFleetConfig(PlacementAttackAware, 0)
	cfg.WAN.Faults = []Fault{{Kind: LinkFlap, A: 0, B: 1, Start: 100 * time.Millisecond, Duration: 500 * time.Millisecond}}
	f := buildFleet(t, cfg)
	res, err := f.Serve(TrafficSpec{Requests: 1200, Rate: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.WANDrops == 0 {
		t.Fatal("flap swallowed no ops")
	}
	if res.BreakerOpens == 0 {
		t.Fatal("drops never opened the breaker")
	}
	if res.FastFails == 0 {
		t.Fatal("open breaker never shed an op")
	}
	if res.BreakerCloses == 0 {
		t.Fatal("breaker never closed after the flap lifted")
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads: %d", res.CorruptReads)
	}
}

// TestWANConfigValidation: every WAN fault the model cannot serve fails
// New instead of serving silently, one row per case.
func TestWANConfigValidation(t *testing.T) {
	sec := time.Second
	cases := []struct {
		name string
		wan  WANConfig
	}{
		{"NaN brownout factor", WANConfig{Faults: []Fault{{Kind: Brownout, A: 0, B: 1, Duration: sec, Factor: math.NaN()}}}},
		{"infinite brownout factor", WANConfig{Faults: []Fault{{Kind: Brownout, A: 0, B: 1, Duration: sec, Factor: math.Inf(1)}}}},
		{"negative brownout factor", WANConfig{Faults: []Fault{{Kind: Brownout, A: 0, B: 1, Duration: sec, Factor: -4}}}},
		{"flap site B out of range", WANConfig{Faults: []Fault{{Kind: LinkFlap, A: 0, B: 7, Duration: sec}}}},
		{"flap site A negative", WANConfig{Faults: []Fault{{Kind: LinkFlap, A: -1, B: 1, Duration: sec}}}},
		{"partition site out of range", WANConfig{Faults: []Fault{{Kind: SitePartition, A: 3, Duration: sec}}}},
		{"unknown fault kind", WANConfig{Faults: []Fault{{Kind: FaultKind(9), A: 0, B: 1, Duration: sec}}}},
		{"negative duration", WANConfig{Faults: []Fault{{Kind: LinkFlap, A: 0, B: 1, Duration: -sec}}}},
	}
	for _, tc := range cases {
		cfg := testFleetConfig(PlacementAttackAware, 0)
		cfg.WAN = tc.wan
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.wan)
		}
	}
	// Zero still means the default, and a partition ignores B.
	cfg := testFleetConfig(PlacementAttackAware, 0)
	cfg.WAN = WANConfig{Faults: []Fault{
		{Kind: SitePartition, A: 2, B: -5, Duration: sec},
		{Kind: Brownout, A: 0, B: 2, Duration: sec},
	}}
	if _, err := New(cfg); err != nil {
		t.Fatalf("valid WAN config rejected: %v", err)
	}
}

// TestBreakerAllowsMatchesLinearScan cross-checks the binary search over
// the sorted shed history against a scan of every recorded window, for
// random histories whose windows arrive out of order (as they do across
// epochs) and queries that go backwards in time.
func TestBreakerAllowsMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cool := 1 + rng.Int63n(50)
		f := &Fleet{links: make([]link, 1)}
		var all []span // insertion order, unsorted
		for i, n := 0, rng.Intn(40); i < n; i++ {
			var from int64
			switch rng.Intn(3) {
			case 0: // in order after the latest window
				if len(all) > 0 {
					from = all[len(all)-1].from + rng.Int63n(2*cool)
				}
			default: // anywhere, often before earlier windows
				from = rng.Int63n(1000)
			}
			f.links[0].addShed(from, cool)
			all = append(all, span{from, from + cool})
		}
		if !slices.IsSortedFunc(f.links[0].shed, func(a, b span) int { return cmp.Compare(a.from, b.from) }) {
			t.Fatalf("trial %d: shed history not sorted by start: %v", trial, f.links[0].shed)
		}
		at := int64(1200)
		for q := 0; q < 300; q++ {
			at -= rng.Int63n(9) - 2 // mostly backwards, sometimes forwards
			want := true
			for _, sp := range all {
				if at >= sp.from && at < sp.to {
					want = false
				}
			}
			if got := f.breakerAllows(0, at); got != want {
				t.Fatalf("trial %d: breakerAllows(%d) = %v, linear scan says %v (windows %v)", trial, at, got, want, all)
			}
		}
	}
}
