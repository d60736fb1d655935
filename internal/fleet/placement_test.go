package fleet

import (
	"testing"
)

// TestAwarePlacementSpreadsBlastRadii pins the two survivability
// invariants: no site holds more than ceil(n/S) shards of any object
// (facility loss costs at most the parity budget), and a site's shards
// of one object sit a maximal stride apart (one contiguous blast radius
// cannot claim two).
func TestAwarePlacementSpreadsBlastRadii(t *testing.T) {
	f, err := New(testFleetConfig(PlacementAttackAware, 0))
	if err != nil {
		t.Fatal(err)
	}
	n := f.coder.TotalShards()
	S := len(f.cfg.Sites)
	q := shardsPerSite(n, S)
	if parity := f.coder.TotalShards() - f.coder.DataShards(); q > parity {
		t.Fatalf("test geometry cannot survive a site: %d shards/site > %d parity", q, parity)
	}
	for o := 0; o < f.cfg.Objects; o++ {
		perSite := make(map[int][]int)
		seen := make(map[int]bool)
		for j := 0; j < n; j++ {
			ni := f.shardNode(o, j)
			if seen[ni] {
				t.Fatalf("object %d: two shards on node %d", o, ni)
			}
			seen[ni] = true
			st := f.drives.Stacks[ni]
			perSite[st.Site] = append(perSite[st.Site], st.Container)
		}
		for s, cts := range perSite {
			if len(cts) > q {
				t.Fatalf("object %d: site %d holds %d shards, cap %d", o, s, len(cts), q)
			}
			if len(cts) == 2 {
				_, c := f.drives.Site(s)
				dist := cts[0] - cts[1]
				if dist < 0 {
					dist = -dist
				}
				if circ := c - dist; circ < dist {
					dist = circ
				}
				if want := c / q; dist < want {
					t.Fatalf("object %d site %d: replicas %d apart, want >= %d", o, s, dist, want)
				}
			}
		}
	}
}

// TestNaivePlacementIsOneBlastRadius: the baseline keeps all n shards on
// the home site in one contiguous container run — latency-optimal and
// exactly what a single acoustic blast erases.
func TestNaivePlacementIsOneBlastRadius(t *testing.T) {
	cfg := testFleetConfig(PlacementNaive, 0)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := f.coder.TotalShards()
	for o := 0; o < f.cfg.Objects; o++ {
		home := o % len(f.cfg.Sites)
		for j := 0; j < n; j++ {
			ni := f.shardNode(o, j)
			if f.drives.Stacks[ni].Site != home {
				t.Fatalf("object %d shard %d left home site %d", o, j, home)
			}
			if j > 0 {
				prev := f.drives.Stacks[f.shardNode(o, j-1)].Container
				if _, c := f.drives.Site(home); f.drives.Stacks[ni].Container != (prev+1)%c {
					t.Fatalf("object %d: naive shards not contiguous at %d", o, j)
				}
			}
		}
	}
}

// TestSourceOrderPrefersLocalShards: GET source order is a permutation
// of all shards with every client-local shard ahead of every remote one
// — the cross-site hop is the failover, not the fast path.
func TestSourceOrderPrefersLocalShards(t *testing.T) {
	f, err := New(testFleetConfig(PlacementAttackAware, 0))
	if err != nil {
		t.Fatal(err)
	}
	n := f.coder.TotalShards()
	for o := 0; o < f.cfg.Objects; o++ {
		for site := 0; site < len(f.cfg.Sites); site++ {
			order := f.sourceOrder(o, site, nil)
			if len(order) != n {
				t.Fatalf("order length %d, want %d", len(order), n)
			}
			seen := make(map[uint16]bool)
			remoteSeen := false
			for _, j := range order {
				if seen[j] {
					t.Fatalf("object %d site %d: shard %d repeated", o, site, j)
				}
				seen[j] = true
				if f.shardSite(o, int(j)) != site {
					remoteSeen = true
				} else if remoteSeen {
					t.Fatalf("object %d site %d: local shard %d after a remote one", o, site, j)
				}
			}
		}
	}
}
