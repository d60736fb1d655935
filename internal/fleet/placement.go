package fleet

// Placement chooses where an object's n erasure shards live across the
// fleet. The paper's threat is *correlated* failure: one acoustic attack
// degrades a contiguous blast radius of containers, and at fleet scale a
// whole facility can go dark at once. Placement is the knob that decides
// whether that correlation is survivable.
type Placement int

const (
	// PlacementAttackAware spreads shards across sites (at most
	// ceil(n/S) per site, so a full facility loss costs no more than
	// that many shards) and, within each site, across containers
	// separated by a maximal stride (so one blast radius cannot swallow
	// a site's whole allotment).
	PlacementAttackAware Placement = iota
	// PlacementNaive keeps every shard of an object on its home site, on
	// contiguous containers — the latency-optimal layout a
	// locality-greedy allocator would pick, and exactly the one a single
	// acoustic blast radius erases.
	PlacementNaive
)

func (p Placement) String() string {
	switch p {
	case PlacementNaive:
		return "naive"
	default:
		return "attack-aware"
	}
}

// shardsPerSite is the attack-aware per-site shard cap: ceil(n/S). A
// single-site loss is survivable iff this is <= the parity count.
func shardsPerSite(n, sites int) int { return (n + sites - 1) / sites }

// minContainers is the smallest per-site container count a placement
// needs for collision-free shard assignment.
func minContainers(p Placement, n, sites int) int {
	if p == PlacementNaive {
		return n
	}
	return shardsPerSite(n, sites)
}

// shardSite maps (object, shard) to a site.
func (f *Fleet) shardSite(o, j int) int {
	s := len(f.cfg.Sites)
	if f.cfg.Placement == PlacementNaive {
		return o % s
	}
	return (o + j) % s
}

// shardNode maps (object, shard) to a global node index.
func (f *Fleet) shardNode(o, j int) int {
	base, c := f.drives.Site(f.shardSite(o, j))
	var local int
	if f.cfg.Placement == PlacementNaive {
		// Contiguous run starting at a per-object offset.
		local = (o/len(f.cfg.Sites) + j) % c
	} else {
		// r-th shard landing on this site; stride the replicas as far
		// apart as the site allows so a contiguous blast radius of
		// fewer than stride containers can only ever claim one.
		q := shardsPerSite(f.coder.TotalShards(), len(f.cfg.Sites))
		stride := c / q
		if stride < 1 {
			stride = 1
		}
		local = (o/len(f.cfg.Sites) + (j/len(f.cfg.Sites))*stride) % c
	}
	return base + local
}

// sourceOrder fills buf with the shard indices of object o in GET
// preference order for a client at clientSite: local shards first (no
// WAN hop), then the rest in ascending shard order. The order is a pure
// function of (object, clientSite), so failover waves resume it
// deterministically.
func (f *Fleet) sourceOrder(o, clientSite int, buf []uint16) []uint16 {
	buf = buf[:0]
	n := f.coder.TotalShards()
	for j := 0; j < n; j++ {
		if f.shardSite(o, j) == clientSite {
			buf = append(buf, uint16(j))
		}
	}
	for j := 0; j < n; j++ {
		if f.shardSite(o, j) != clientSite {
			buf = append(buf, uint16(j))
		}
	}
	return buf
}
