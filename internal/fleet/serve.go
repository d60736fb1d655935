package fleet

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"deepnote/internal/metrics"
	"deepnote/internal/sched"
)

// Request flags.
const (
	fPut      uint8 = 1 << iota // request is a PUT
	fOK                         // completed successfully
	fHedged                     // issued a speculative extra source
	fDeadline                   // ran out its deadline budget
)

// reqState is one client request's arena slot. All times are int64
// nanosecond offsets from the fleet origin.
type reqState struct {
	arrival  int64
	deadline int64
	end      int64 // latest observed op completion (= final latency edge)
	object   int32
	okMask   uint32 // bitmask of shards confirmed OK
	site     uint8
	flags    uint8
	wave     uint8
	nextSrc  uint16 // cursor into the request's source order
	shardOK  uint16
	fails    uint16
}

// Op flags.
const (
	oPut      uint8 = 1 << iota // shard write
	oFastFail                   // shed instantly by an open breaker (never reached the link)
	oDropped                    // swallowed by a down link (observed at issue+Timeout)
)

// Op outcome bits, written only by the owning node's dispatch.
const (
	bOK       uint8 = 1 << iota // shard op succeeded and bytes verified
	bChecksum                   // bytes came back but did not match the stripe
)

// wanOp is one shard operation in flight. Its slot in the epoch's op
// arena doubles as the node-queue event ID; concurrent node drains write
// disjoint entries, so the epoch's outcomes fold race-free in the serial
// combine.
type wanOp struct {
	// end is the gateway-observed completion (node finish + return
	// delay). Until dispatch sets it, an op bound for a node holds its
	// push time there.
	end      int64
	retDelay int64
	req      int32
	node     int32 // the node holding the shard
	link     int16 // WAN link index, -1 for a site-local op
	shard    uint16
	flags    uint8
	bits     uint8
}

// pushTally counts one node's pushes in an epoch: those its queue's
// sorted run takes, whose latest time is tail, and those its heap takes.
type pushTally struct {
	run, heap int
	tail      int64
}

// Serve runs the global workload through the fleet and returns the
// ledger. Each epoch issues ops serially into the op arena (sampling WAN
// delays by pure per-op hash), pushes them onto their nodes' queues,
// drains every node's queue concurrently on its own clock
// (Drives.Drain), folds outcomes serially in observation order
// (breakers, shard accounting), then empties the arena and plans the
// next failover waves — repeat until no request is pending.
func (f *Fleet) Serve(spec TrafficSpec) (Result, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if !f.drives.Preloaded() {
		return Result{}, errors.New("fleet: Serve before Preload")
	}
	n, k := f.coder.TotalShards(), f.coder.DataShards()
	f.genRequests(spec)
	f.resetBreakers()
	// Size the op ledger for the first wave: n ops per PUT, k per GET.
	wave0 := 0
	for i := range f.reqs {
		if f.reqs[i].flags&fPut != 0 {
			wave0 += n
		} else {
			wave0 += min(k, n)
		}
	}
	f.ops = slices.Grow(f.ops[:0], wave0)
	f.opSeq = 0
	res := Result{Requests: spec.Requests}

	pending := slices.Grow(f.pendingBuf[:0], len(f.reqs))
	for i := range f.reqs {
		r := &f.reqs[i]
		if r.flags&fPut != 0 {
			for j := 0; j < n; j++ {
				f.issueOp(int32(i), j, r.arrival, true, &res)
			}
		} else {
			f.orderBuf = f.sourceOrder(int(r.object), int(r.site), f.orderBuf)
			for c := 0; c < k && c < n; c++ {
				f.issueOp(int32(i), int(f.orderBuf[c]), r.arrival, false, &res)
			}
			r.nextSrc = uint16(k)
		}
		pending = append(pending, int32(i))
	}

	for len(pending) > 0 {
		f.enqueue()
		if err := f.drives.Drain(f.dispatch); err != nil {
			return Result{}, err
		}
		f.combine(&res)
		f.ops = f.ops[:0]
		pending = f.plan(pending, &res)
	}
	f.pendingBuf = pending[:0]
	if err := f.settle(&res); err != nil {
		return Result{}, err
	}
	f.last = res
	return res, nil
}

// issueOp records one shard op in the arena, either bound for its node
// at its push time (enqueue pushes it) or — when the WAN refuses it —
// with the failure the gateway will observe already synthesized. Called
// only from serial planning.
func (f *Fleet) issueOp(ri int32, j int, at int64, put bool, res *Result) {
	r := &f.reqs[ri]
	ni := f.shardNode(int(r.object), j)
	seq := f.opSeq
	f.opSeq++
	op := wanOp{req: ri, node: int32(ni), shard: uint16(j), link: -1, end: at}
	if put {
		op.flags |= oPut
	}
	if site := f.drives.Stacks[ni].Site; site != int(r.site) {
		li := f.linkIdx(int(r.site), site)
		op.link = int16(li)
		res.CrossSiteOps++
		switch {
		case !f.breakerAllows(li, at):
			// Open breaker: the gateway sheds the op instantly; the
			// link never sees it, so the breaker does not feed on it.
			op.flags |= oFastFail
			res.FastFails++
			f.ops = append(f.ops, op)
			return
		case f.linkDown(li, at):
			// Down link swallows the op; the loss is observed only
			// after the WAN timeout, and it does feed the breaker.
			op.flags |= oDropped
			op.end = at + int64(wanTimeout)
			res.WANDrops++
			f.ops = append(f.ops, op)
			return
		}
		out, ret := f.wanDelays(li, seq, at, put)
		op.end, op.retDelay = at+out, ret
	}
	f.ops = append(f.ops, op)
}

// enqueue pushes the epoch's node-bound ops onto their nodes' queues in
// op order, so each queue assigns the same sequence numbers as pushing
// at issue would. Every queue is empty between epochs, so one pass over
// the push times counts exactly which pushes each queue's sorted run
// takes (the first, and any at or after the run's tail) and which its
// heap takes, and each queue is reserved once before the pushes.
func (f *Fleet) enqueue() {
	clear(f.tally)
	for i := range f.ops {
		op := &f.ops[i]
		if op.flags&(oFastFail|oDropped) != 0 {
			continue
		}
		t := &f.tally[op.node]
		if t.run == 0 || op.end >= t.tail {
			t.run++
			t.tail = op.end
		} else {
			t.heap++
		}
	}
	for ni, t := range f.tally {
		f.drives.Stacks[ni].Queue.Reserve(t.run, t.heap)
	}
	for i := range f.ops {
		op := &f.ops[i]
		if op.flags&(oFastFail|oDropped) == 0 {
			f.drives.Stacks[op.node].Queue.Push(op.end, uint64(i))
		}
	}
}

// dispatch executes one shard op on its node through Drives.ShardOp, the
// cell's own end-to-end checksum: a GET whose bytes differ from the
// stripe (a vibration-corrupted sector) fails the op rather than
// poisoning the decode.
func (f *Fleet) dispatch(ni int, it sched.Item) {
	op := &f.ops[it.ID]
	o := int(f.reqs[op.req].object)
	ok, checksum := f.drives.ShardOp(ni, op.flags&oPut != 0, o, o, int(op.shard))
	if ok {
		op.bits |= bOK
	}
	if checksum {
		op.bits |= bChecksum
	}
	op.end = f.drives.Offset(ni) + op.retDelay
}

// combine folds the epoch's ops in gateway observation order — (end, op
// index) — which is what makes the breaker state machines
// deterministic. Request-level folds are commutative, so the one sorted
// pass serves both.
func (f *Fleet) combine(res *Result) {
	f.epochSort = slices.Grow(f.epochSort[:0], len(f.ops))
	for i := range f.ops {
		f.epochSort = append(f.epochSort, int32(i))
	}
	slices.SortFunc(f.epochSort, func(a, b int32) int {
		if c := cmp.Compare(f.ops[a].end, f.ops[b].end); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	k := f.coder.DataShards()
	for _, oi := range f.epochSort {
		op := &f.ops[oi]
		r := &f.reqs[op.req]
		ok := op.bits&bOK != 0
		if op.link >= 0 && op.flags&oFastFail == 0 {
			f.breakerObserve(int(op.link), op.end, ok, res)
		}
		// The client stops waiting at the k-th confirmed shard; ops
		// folding after that (stragglers, in-flight hedges) no longer
		// move the request's latency edge. Folding in end order makes
		// this exact: when shardOK reaches k, r.end is the ack time.
		if int(r.shardOK) < k && op.end > r.end {
			r.end = op.end
		}
		if op.flags&oPut != 0 {
			res.ShardWrites++
			if ok {
				r.shardOK++
			} else {
				res.ShardWriteErrors++
				r.fails++
			}
		} else {
			res.ShardReads++
			if ok {
				r.shardOK++
				r.okMask |= 1 << op.shard
			} else {
				res.ShardReadErrors++
				r.fails++
				if op.bits&bChecksum != 0 {
					res.ChecksumMisses++
				}
			}
		}
	}
}

// plan walks the pending requests after a fold: completes the done ones
// and issues the next failover wave for starved GETs — doubling backoff,
// deadline-clamped final wave and tail-triggered hedging. A GET keeps
// walking parity and remote sites until its deadline budget runs out
// (serve-degraded); nothing is shed before that.
func (f *Fleet) plan(pending []int32, res *Result) []int32 {
	next := pending[:0]
	n, k := f.coder.TotalShards(), f.coder.DataShards()
	for _, ri := range pending {
		r := &f.reqs[ri]
		if r.flags&fPut != 0 {
			// PUTs are single-wave: every shard was issued at arrival;
			// the ack needs k durable, full durability is n.
			if int(r.shardOK) >= k {
				r.flags |= fOK
			}
			continue
		}
		if int(r.shardOK) >= k {
			r.flags |= fOK
			continue
		}
		if int(r.nextSrc) >= n {
			continue // every source consumed and still short: failed
		}
		// Doubling backoff from the last observation, clamped so the
		// request spends its whole deadline budget and gets one final
		// wave at the edge (the blockdev.Retrier boundary contract)
		// instead of abandoning the remainder unspent.
		backoff := int64(retryBackoff)
		if shift := uint(r.wave); shift > 0 {
			if shift > 20 {
				shift = 20
			}
			backoff <<= shift
		}
		issueAt := r.end + backoff
		if issueAt > r.deadline {
			if r.end >= r.deadline {
				r.flags |= fDeadline
				res.DeadlineExhausted++
				continue
			}
			issueAt = r.deadline
		}
		need := k - int(r.shardOK)
		avail := n - int(r.nextSrc)
		issue := need
		hedge := avail > need && r.end-r.arrival > int64(hedgeAfter)
		if hedge {
			issue++
		}
		if issue > avail {
			issue = avail
		}
		f.orderBuf = f.sourceOrder(int(r.object), int(r.site), f.orderBuf)
		r.wave++
		res.FailoverWaves++
		if hedge && r.flags&fHedged == 0 {
			r.flags |= fHedged
			res.HedgedRequests++
		}
		for c := 0; c < issue; c++ {
			j := int(f.orderBuf[r.nextSrc])
			r.nextSrc++
			f.issueOp(ri, j, issueAt, false, res)
		}
		next = append(next, ri)
	}
	return next
}

// settle closes the ledger: per-request and per-site outcomes, latency
// quantiles, goodput — and the corruption audit: every degraded-but-OK
// GET is actually decoded from its confirmed shards and compared to the
// object's true content. Accepted shards are byte-verified at the node,
// so CorruptReads must come out zero; the audit is what makes that a
// measurement instead of an assumption.
func (f *Fleet) settle(res *Result) error {
	puts := 0
	for i := range f.reqs {
		if f.reqs[i].flags&fPut != 0 {
			puts++
		}
	}
	f.latGet = slices.Grow(f.latGet[:0], len(f.reqs)-puts)
	f.latPut = slices.Grow(f.latPut[:0], puts)
	outcomes := make([]ReqOutcome, len(f.reqs))
	per := make([]SiteStats, len(f.cfg.Sites))
	for s := range per {
		per[s].Name = f.cfg.Sites[s].Name
	}
	n := f.coder.TotalShards()
	var span int64
	minPut := n
	anyPutOK := false
	for i := range f.reqs {
		r := &f.reqs[i]
		ok := r.flags&fOK != 0
		lat := time.Duration(r.end - r.arrival)
		if r.end > span {
			span = r.end
		}
		st := &per[r.site]
		if r.flags&fPut != 0 {
			res.Puts++
			st.Puts++
			f.latPut = append(f.latPut, lat)
			if ok {
				res.PutOK++
				st.PutOK++
				anyPutOK = true
				res.BytesServed += int64(f.cfg.ObjectSize)
				if int(r.shardOK) < n {
					res.DegradedWrites++
				}
				if int(r.shardOK) < minPut {
					minPut = int(r.shardOK)
				}
			} else {
				res.PutFailures++
			}
		} else {
			res.Gets++
			st.Gets++
			f.latGet = append(f.latGet, lat)
			if ok {
				res.GetOK++
				st.GetOK++
				res.BytesServed += int64(f.cfg.ObjectSize)
				if r.wave > 0 || r.fails > 0 {
					res.DegradedReads++
					if err := f.auditRead(r, res); err != nil {
						return err
					}
				}
			} else {
				res.GetFailures++
			}
		}
		outcomes[i] = ReqOutcome{
			Arrival: time.Duration(r.arrival),
			Latency: lat,
			Site:    r.site,
			Get:     r.flags&fPut == 0,
			OK:      ok,
		}
	}
	if !anyPutOK {
		minPut = 0
	}
	res.MinPutShards = minPut
	all := make([]time.Duration, 0, len(f.latGet)+len(f.latPut))
	res.P50, res.P99, res.Max = metrics.LatencyQuantiles(append(append(all, f.latGet...), f.latPut...))
	res.Span = time.Duration(span)
	if span > 0 {
		res.GoodputMBps = float64(res.BytesServed) / (float64(span) / 1e9) / 1e6
	}
	res.PerSite = per
	res.Outcomes = outcomes
	return nil
}

// auditRead re-decodes one degraded-but-acknowledged GET from exactly
// the shards the gateway confirmed, and charges CorruptReads if the
// reassembled bytes differ from the object's true content.
func (f *Fleet) auditRead(r *reqState, res *Result) error {
	n, k := f.coder.TotalShards(), f.coder.DataShards()
	shards := make([][]byte, n)
	have := 0
	for j := 0; j < n; j++ {
		if r.okMask&(1<<j) != 0 {
			shards[j] = append([]byte(nil), f.drives.Stripes[r.object][j]...)
			have++
		}
	}
	if have < k {
		return fmt.Errorf("fleet: GET for object %d acked with %d/%d shards", r.object, have, k)
	}
	if err := f.coder.Reconstruct(shards); err != nil {
		return err
	}
	joined, err := f.coder.Join(shards, f.cfg.ObjectSize)
	if err != nil {
		return err
	}
	if !bytes.Equal(joined, f.drives.Payload(int(r.object))) {
		res.CorruptReads++
	}
	return nil
}
