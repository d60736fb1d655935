package cluster

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"deepnote/internal/metrics"
	"deepnote/internal/sched"
)

// TrafficSpec is the open-loop client workload: requests arrive on a
// fixed deterministic schedule regardless of how the cluster is coping
// (the attacker's favorite arrival process — load does not back off when
// the store degrades), with zipfian key popularity.
type TrafficSpec struct {
	// Requests is the total client request count (default 200).
	Requests int
	// Rate is the arrival rate in requests/second (default 1000): request
	// i arrives at origin + i/Rate, computed in integer nanoseconds.
	Rate float64
	// ReadFraction is the GET share of the mix. nil means the default
	// (0.9); an explicit Ptr(0.0) is a write-only workload. Values
	// outside [0, 1] are rejected.
	ReadFraction *float64
	// Seed drives op mix and key choice. nil means the cluster seed; an
	// explicit Ptr(int64(0)) is honored and reproduces like any other
	// seed.
	Seed *int64
}

// zipfS and zipfV shape key popularity: rand.NewZipf's s and v.
const (
	zipfS = 1.2
	zipfV = 1
)

func (t TrafficSpec) withDefaults(clusterSeed int64) (TrafficSpec, error) {
	if t.Requests <= 0 {
		t.Requests = 200
	}
	if t.Rate <= 0 {
		t.Rate = 1000
	}
	rf, err := ResolveReadFraction(t.ReadFraction)
	if err != nil {
		return t, fmt.Errorf("cluster: %w", err)
	}
	t.ReadFraction = rf
	if t.Seed == nil {
		t.Seed = Ptr(clusterSeed)
	}
	return t, nil
}

// ResolveReadFraction resolves a workload's GET share, the same way for
// both serving tiers: nil means 0.9, and an explicit value must lie in
// [0, 1] (NaN is rejected, not silently served as an all-GET mix).
func ResolveReadFraction(rf *float64) (*float64, error) {
	if rf == nil {
		return Ptr(0.9), nil
	}
	if !(*rf >= 0 && *rf <= 1) {
		return nil, fmt.Errorf("ReadFraction %v outside [0, 1]", *rf)
	}
	return rf, nil
}

// ArrivalNS returns request i's open-loop arrival offset in integer
// nanoseconds: i/rate seconds with the division carried out in int64 for
// whole-number rates, so a 10^8-request schedule stays strictly monotone
// instead of accumulating float64 rounding — float64(i)/rate*1e9 loses
// integer precision past 2^53 ns and can emit equal or even decreasing
// arrivals at scale.
func ArrivalNS(i int, rate float64) int64 {
	if rate >= 1 && rate <= 1e9 && rate == math.Trunc(rate) {
		r := int64(rate)
		return int64(i)/r*int64(time.Second) + int64(i)%r*int64(time.Second)/r
	}
	return int64(math.Round(float64(i) / rate * 1e9))
}

// ServeResult summarizes one serving run.
type ServeResult struct {
	// Request-level outcomes.
	Requests, Gets, Puts     int
	GetOK, PutOK             int
	GetFailures, PutFailures int
	// DegradedReads are GETs that lost at least one shard and were served
	// from parity; DegradedWrites are PUTs acked with fewer than n shards
	// durable (still ≥ k).
	DegradedReads, DegradedWrites int
	// MinPutShards is the worst acked write redundancy (n when nothing
	// degraded).
	MinPutShards int
	// Read-repair outcomes (background re-replication of shards lost
	// during degraded reads).
	RepairWrites, RepairFailures int
	// CorruptReads counts served GETs whose bytes mismatched the object.
	// Every served shard has passed Drives.ShardOp's checksum, so it is
	// always 0; it stays in the ledger (and in the cluster.corrupt_reads
	// metric) as the standing claim that no attack ever serves rot.
	CorruptReads int
	// Shard-level I/O.
	ShardReads, ShardWrites           int
	ShardReadErrors, ShardWriteErrors int
	// Closed-loop defense outcomes (all 0 with the defense off).
	// SteeredGets are GETs whose initial shard set was reordered away
	// from the at-risk region; ReplicaReads are successful shard reads
	// served from a defense replica (ReplicaReadErrors the failed ones).
	// A shard read whose bytes mismatch its stripe — home or replica —
	// fails like any other shard error. EvacWrites/EvacFailures count the
	// preemptive re-placement writes; EvacSkipped counts shards the plan
	// could not re-place because no container was outside the predicted
	// blast radius.
	SteeredGets                     int
	ReplicaReads, ReplicaReadErrors int
	EvacWrites, EvacFailures        int
	EvacSkipped                     int
	// BytesServed is the object bytes moved by successful requests.
	BytesServed int64
	// Span is the time from first arrival to last client completion.
	Span time.Duration
	// GoodputMBps is BytesServed over Span in MB/s.
	GoodputMBps float64
	// Client latency percentiles over successful requests.
	P50, P99, Max time.Duration
}

// GetAvailability is the served fraction of GETs (1 when none issued).
func (r ServeResult) GetAvailability() float64 {
	if r.Gets == 0 {
		return 1
	}
	return float64(r.GetOK) / float64(r.Gets)
}

// PutAvailability is the acked fraction of PUTs (1 when none issued).
func (r ServeResult) PutAvailability() float64 {
	if r.Puts == 0 {
		return 1
	}
	return float64(r.PutOK) / float64(r.Puts)
}

// reqState is one client request in the arena: fixed-size, no per-request
// heap objects. Shards are always issued as a prefix [0, nextShard), so a
// counter tracks them, and returned payloads are checked in flight
// (Drives.ShardOp), never kept.
type reqState struct {
	arrival int64 // ns from origin
	end     int64 // ns from origin, max over this request's shard ops
	object  int32
	// nextShard is one past the highest source issued: an index into the
	// identity shard order 0..n−1, or — for a request under an active
	// defense phase — into that phase's source order (see defenseOrder).
	nextShard uint16
	shardOK   uint16
	flags     uint8
	// phase is 1 + the defense phase in force at arrival (0 = none: the
	// request predates the first fix, or the defense is off).
	phase uint8
}

// reqState flags.
const (
	reqPut uint8 = 1 << iota
	reqDone
	reqOK
)

// Event-ID flags (low byte of a queue item's ID).
const (
	evPut uint8 = 1 << iota
	evRepair
	// evReplica: this GET reads the shard's defense replica (local key
	// object+Objects on the replica's drive) instead of its home.
	evReplica
	// evEvac: a defense re-placement write; the request index addresses
	// the defense plan's evac list, not the client arena.
	evEvac
)

// packEv encodes a shard op as a queue event ID: request index (repair
// index for evRepair events) in the high bits, shard in bits 8–23, flags
// in the low byte. Events are plain integers so the queues never hold
// pointers or closures.
func packEv(req int32, shard int, flags uint8) uint64 {
	return uint64(uint32(req))<<24 | uint64(uint16(shard))<<8 | uint64(flags)
}

// opResult is one dispatched shard op's outcome, recorded by the owning
// drive during an epoch and folded into request state serially afterward.
type opResult struct {
	end   int64
	req   int32
	shard uint16
	bits  uint8
}

// opResult bits.
const (
	opOK uint8 = 1 << iota
	opPut
	opReplica // GET was served from a defense replica
)

// failRec is one failed GET shard op, kept for degraded accounting and
// read-repair planning.
type failRec struct {
	req   int32
	shard uint16
}

// repairOp is one background shard re-write.
type repairOp struct {
	arrival int64
	object  int32
	shard   uint16
	ok      bool
}

// Serve runs the workload to completion and returns the summary.
//
// The engine is an epoch-synchronized discrete-event simulation (see
// internal/sched): each epoch's shard ops are pushed onto per-drive event
// queues in deterministic global order, every drive drains its queue
// concurrently in (arrival, issue-seq) order on its own clock — an op
// starts at max(its arrival, the drive's current time), so a backlogged
// drive queues work exactly like a congested server — and results are
// folded back serially between epochs. GETs fetch the k data shards
// first and fall back to parity shard-by-shard in later epochs (degraded
// reads); PUTs write all n shards in one epoch and ack at ≥ k durable.
// After the client window, lost shards observed by degraded reads are
// re-written in a background read-repair epoch.
//
// Every shard op goes through Drives.ShardOp, so a GET shard whose bytes
// mismatch its stripe fails and the request falls back to parity, as the
// fleet tier does. Results are byte-identical at any Config.Workers value.
func (c *Cluster) Serve(spec TrafficSpec) (ServeResult, error) {
	spec, err := spec.withDefaults(c.cfg.seed())
	if err != nil {
		return ServeResult{}, err
	}
	if !c.drives.Preloaded() {
		return ServeResult{}, fmt.Errorf("cluster: Serve before Preload")
	}
	n := c.coder.TotalShards()
	k := c.coder.DataShards()

	// Deterministic open-loop client stream: one Float64 (op mix) and one
	// zipf draw (key) per request, in request order.
	rng := rand.New(rand.NewSource(*spec.Seed))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(c.cfg.Objects-1))
	rf := *spec.ReadFraction

	if cap(c.reqsBuf) < spec.Requests {
		c.reqsBuf = make([]reqState, spec.Requests)
	}
	reqs := c.reqsBuf[:spec.Requests]
	c.failedBuf = c.failedBuf[:0]
	c.repairBuf = c.repairBuf[:0]

	res := ServeResult{Requests: spec.Requests, MinPutShards: n}
	for i := range reqs {
		fl := uint8(0)
		if rng.Float64() >= rf {
			fl = reqPut
			res.Puts++
		} else {
			res.Gets++
		}
		reqs[i] = reqState{arrival: ArrivalNS(i, spec.Rate), object: int32(zipf.Uint64()), flags: fl}
		if c.defense != nil {
			if p := c.defense.phaseFor(reqs[i].arrival); p >= 0 {
				reqs[i].phase = uint8(p + 1)
			}
		}
	}
	if c.defense != nil {
		res.EvacSkipped = c.defense.skipped
		for i := range c.defense.evacs {
			c.defense.evacs[i].ok = false
		}
	}

	// Epoch 0 is walked twice: once to count each drive's pushes, then
	// to push them. Its pushes are in time order, so each drive's count
	// is exactly its sorted run and the queues are sized once.
	pushes := make([]int, len(c.drives.Stacks))
	c.epoch0(reqs, func(di int, _ int64, _ uint64) { pushes[di]++ })
	for di, p := range pushes {
		c.drives.Stacks[di].Queue.Reserve(p, 0)
	}
	queued, steered := c.epoch0(reqs, func(di int, at int64, id uint64) {
		c.drives.Stacks[di].Queue.Push(at, id)
	})
	res.SteeredGets = steered
	pending := slices.Grow(c.pendingBuf[0][:0], len(reqs))
	for ri := range reqs {
		pending = append(pending, int32(ri))
	}
	next := slices.Grow(c.pendingBuf[1][:0], res.Gets)

	for queued > 0 {
		// Size each drive's result buffer for its queued ops, so the
		// dispatch loop appends without growing it.
		for di, b := range c.bufs {
			b.results = slices.Grow(b.results, c.drives.Stacks[di].Queue.Len())
		}
		if err := c.drives.Drain(c.dispatch); err != nil {
			return ServeResult{}, err
		}
		c.combine(reqs, &res)
		// Settle and plan the next epoch: PUTs ack at ≥ k durable; GETs
		// walk the parity shards until k succeed or the stripe is spent.
		next = next[:0]
		queued = 0
		for _, ri := range pending {
			r := &reqs[ri]
			if r.flags&reqPut != 0 {
				r.flags |= reqDone
				if int(r.shardOK) >= k {
					r.flags |= reqOK
				}
				continue
			}
			if int(r.shardOK) >= k {
				r.flags |= reqDone | reqOK
				continue
			}
			need := k - int(r.shardOK)
			issued := 0
			order := c.defenseOrder(r)
			for idx := int(r.nextShard); idx < n && issued < need; idx++ {
				di, j, sfl := c.shardDrive(int(r.object), idx), idx, uint8(0)
				if order != nil {
					di, j, sfl = c.resolveSource(r, order[idx])
				}
				c.drives.Stacks[di].Queue.Push(r.end, packEv(ri, j, sfl))
				r.nextShard++
				issued++
			}
			if issued == 0 {
				r.flags |= reqDone
			} else {
				next = append(next, ri)
				queued += issued
			}
		}
		pending, next = next, pending
	}
	c.pendingBuf[0], c.pendingBuf[1] = pending[:0], next[:0]

	// Fold the re-placement outcomes (the writes ran inside the epoch
	// drains, interleaved with client traffic on the target drives).
	if c.defense != nil {
		for i := range c.defense.evacs {
			res.EvacWrites++
			if !c.defense.evacs[i].ok {
				res.EvacFailures++
			}
		}
	}

	c.latGet = slices.Grow(c.latGet[:0], res.Gets)
	c.latPut = slices.Grow(c.latPut[:0], res.Puts)

	// Settle outcomes in request order: latencies and read-repair planning ("first observer wins" on each lost shard —
	// the fail list is sorted so observers are visited in request order).
	slices.SortFunc(c.failedBuf, func(a, b failRec) int {
		if a.req != b.req {
			return cmp.Compare(a.req, b.req)
		}
		return cmp.Compare(a.shard, b.shard)
	})
	type objShard struct {
		object int32
		shard  uint16
	}
	repairSeen := map[objShard]bool{}
	fi := 0
	for ri := range reqs {
		r := &reqs[ri]
		if r.end > int64(res.Span) {
			res.Span = time.Duration(r.end)
		}
		fj := fi
		for fj < len(c.failedBuf) && int(c.failedBuf[fj].req) == ri {
			fj++
		}
		fails := c.failedBuf[fi:fj]
		fi = fj
		lat := time.Duration(r.end - r.arrival)
		if r.flags&reqPut != 0 {
			if r.flags&reqOK == 0 {
				res.PutFailures++
				continue
			}
			res.PutOK++
			if int(r.shardOK) < n {
				res.DegradedWrites++
			}
			if int(r.shardOK) < res.MinPutShards {
				res.MinPutShards = int(r.shardOK)
			}
			res.BytesServed += int64(c.cfg.ObjectSize)
			c.latPut = append(c.latPut, lat)
			continue
		}
		if r.flags&reqOK == 0 {
			res.GetFailures++
			continue
		}
		res.GetOK++
		res.BytesServed += int64(c.cfg.ObjectSize)
		c.latGet = append(c.latGet, lat)
		if len(fails) > 0 {
			res.DegradedReads++
		}
		for _, f := range fails {
			key := objShard{r.object, f.shard}
			if repairSeen[key] {
				continue
			}
			repairSeen[key] = true
			c.repairBuf = append(c.repairBuf, repairOp{arrival: r.end, object: r.object, shard: f.shard})
		}
	}

	// Client-visible span and latency percentiles, before repair traffic.
	if res.Span > 0 {
		res.GoodputMBps = float64(res.BytesServed) / 1e6 / res.Span.Seconds()
	}
	all := make([]time.Duration, 0, len(c.latGet)+len(c.latPut))
	res.P50, res.P99, res.Max = metrics.LatencyQuantiles(append(append(all, c.latGet...), c.latPut...))

	// Background read-repair epoch.
	if len(c.repairBuf) > 0 {
		for i := range c.repairBuf {
			rp := &c.repairBuf[i]
			c.drives.Stacks[c.shardDrive(int(rp.object), int(rp.shard))].Queue.Push(
				rp.arrival, packEv(int32(i), int(rp.shard), evPut|evRepair))
		}
		if err := c.drives.Drain(c.dispatch); err != nil {
			return ServeResult{}, err
		}
		for i := range c.repairBuf {
			res.RepairWrites++
			if !c.repairBuf[i].ok {
				res.RepairFailures++
			}
		}
	}

	c.last = res
	return res, nil
}

// epoch0 walks epoch 0's shard ops in issue order, handing each to visit
// with its drive, time and event ID, and returns the op count and the
// number of steered GETs. It is the one place that decides where an
// epoch-0 op goes. PUTs stripe to all n shards; GETs try their first k
// sources — the k data shards, or under an active defense phase the
// first k entries of the phase's source order (healthy homes and
// replicas ahead of anything inside the predicted blast radius).
//
// The defense plan's re-placement writes interleave with the client
// stream in time order: each goes just before the first request
// arriving at or after its activation. That keeps every drive's pushes
// in time order (the queue's O(1) path) and still gives an evac a lower
// sequence number than any request at the same time (a replica must
// exist on a drive's timeline before the first steered read reaches
// it). It relies on the plan's evacs being nondecreasing in at, which
// SetDefense guarantees.
func (c *Cluster) epoch0(reqs []reqState, visit func(di int, at int64, id uint64)) (ops, steered int) {
	n, k := c.coder.TotalShards(), c.coder.DataShards()
	var evacs []evacOp
	if c.defense != nil {
		evacs = c.defense.evacs
	}
	ei := 0
	visitEvacs := func(until int64) {
		for ; ei < len(evacs) && evacs[ei].at <= until; ei++ {
			ev := &evacs[ei]
			visit(int(ev.drive), ev.at, packEv(int32(ei), int(ev.shard), evPut|evEvac))
			ops++
		}
	}
	for ri := range reqs {
		r := &reqs[ri]
		visitEvacs(r.arrival)
		limit, fl := k, uint8(0)
		if r.flags&reqPut != 0 {
			limit, fl = n, evPut
		}
		r.nextShard = uint16(limit)
		ops += limit
		if order := c.defenseOrder(r); order != nil && r.flags&reqPut == 0 {
			isSteered := false
			for idx := 0; idx < limit; idx++ {
				di, j, sfl := c.resolveSource(r, order[idx])
				if sfl != 0 || j != idx {
					isSteered = true
				}
				visit(di, r.arrival, packEv(int32(ri), j, sfl))
			}
			if isSteered {
				steered++
			}
			continue
		}
		for j := 0; j < limit; j++ {
			visit(c.shardDrive(int(r.object), j), r.arrival, packEv(int32(ri), j, fl))
		}
	}
	visitEvacs(math.MaxInt64)
	return ops, steered
}

// dispatch executes one shard op on drive di. Drives.Drain has already
// advanced the drive's clock to max(event time, drive now); everything
// touched here is owned by the drive (its stack, its result buffers) or
// read-only (request arena, stripes), so drives dispatch concurrently
// without synchronization. The steady-state path does not allocate: the
// op is a packed integer and Drives.ShardOp checks the server's buffer
// in place.
func (c *Cluster) dispatch(di int, it sched.Item) {
	flags := uint8(it.ID)
	idx, shard := int32(it.ID>>24), int(uint16(it.ID>>8))
	if flags&evRepair != 0 {
		rp := &c.repairBuf[idx]
		rp.ok, _ = c.drives.ShardOp(di, true, int(rp.object), int(rp.object), shard)
		return
	}
	if flags&evEvac != 0 {
		ev := &c.defense.evacs[idx]
		ev.ok, _ = c.drives.ShardOp(di, true, int(ev.object)+c.cfg.Objects, int(ev.object), shard)
		return
	}
	r := &c.reqsBuf[idx]
	key, bits := int(r.object), uint8(0)
	if flags&evPut != 0 {
		bits = opPut
	}
	if flags&evReplica != 0 {
		key += c.cfg.Objects
		bits |= opReplica
	}
	if ok, _ := c.drives.ShardOp(di, flags&evPut != 0, key, int(r.object), shard); ok {
		bits |= opOK
	}
	c.bufs[di].results = append(c.bufs[di].results, opResult{
		end: c.drives.Offset(di), req: idx, shard: uint16(shard), bits: bits})
}

// combine folds every drive's epoch results into the request arena and
// the run counters, serially in drive order. All folds are commutative
// across drives (counter increments, max of end times; the fail list is
// sorted before use), so the fold order never shows in the output.
func (c *Cluster) combine(reqs []reqState, res *ServeResult) {
	for _, d := range c.bufs {
		for i := range d.results {
			rec := &d.results[i]
			r := &reqs[rec.req]
			if rec.bits&opPut != 0 {
				res.ShardWrites++
			} else {
				res.ShardReads++
			}
			switch {
			case rec.bits&opOK != 0:
				r.shardOK++
				if rec.bits&opReplica != 0 {
					res.ReplicaReads++
				}
			case rec.bits&opPut != 0:
				res.ShardWriteErrors++
			default:
				res.ShardReadErrors++
				if rec.bits&opReplica != 0 {
					res.ReplicaReadErrors++
				}
				c.failedBuf = append(c.failedBuf, failRec{req: rec.req, shard: rec.shard})
			}
			if rec.end > r.end {
				r.end = rec.end
			}
		}
		d.results = d.results[:0]
	}
}
