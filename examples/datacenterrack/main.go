// Datacenterrack: the paper's motivating scenario scaled up — a full
// storage tower of five drives in a submerged container, each running the
// victim software stack (journaling filesystem + key-value store + server
// model). One underwater speaker takes the whole rack's storage offline
// and, held long enough, crashes every server in it.
//
// Act two zooms out to facility scale: six containers on the seafloor
// behind a 4-of-6 erasure-coded object store. The same speakers now have
// to silence whole failure domains, and availability only falls once the
// attacker exceeds the parity budget.
package main

import (
	"fmt"
	"log"
	"time"

	"deepnote"
	"deepnote/internal/cluster"
	"deepnote/internal/core"
	"deepnote/internal/enclosure"
	"deepnote/internal/kvdb"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// node is one drive slot's full stack.
type node struct {
	slot int
	rig  *core.Rig
	db   *kvdb.DB
}

func main() {
	tower := enclosure.SupermicroCSEM35TQB()
	fmt.Printf("Underwater rack: %s inside a plastic container, %d drives\n\n",
		tower.Name, tower.Slots)

	// Build one rig per slot: same container, different tower positions.
	var nodes []*node
	for slot := 0; slot < tower.Slots; slot++ {
		tb, err := core.NewTestbed(core.Scenario2, 1*units.Centimeter)
		if err != nil {
			log.Fatal(err)
		}
		tb.Assembly.Mount = enclosure.TowerMount(tower, slot)
		rig, err := core.NewRigFromTestbed(tb, int64(100+slot))
		if err != nil {
			log.Fatal(err)
		}
		_, db, _, err := deepnote.NewStack(rig, int64(slot+1))
		if err != nil {
			log.Fatal(err)
		}
		nodes = append(nodes, &node{slot: slot, rig: rig, db: db})
	}

	// Healthy baseline: every node serves a write-heavy workload.
	fmt.Println("baseline (no attack):")
	for _, n := range nodes {
		mbps := runWorkload(n, 2*time.Second)
		fmt.Printf("  slot %d: %.1f MB/s key-value throughput\n", n.slot, mbps)
	}

	// One speaker, one tone, every drive in the tower.
	tone := sig.NewTone(650 * units.Hz)
	fmt.Printf("\n>>> attacker keys a %v tone at 1 cm from the container\n\n", tone.Freq)
	fmt.Println("under attack:")
	for _, n := range nodes {
		n.rig.ApplyTone(tone)
		mbps := runWorkload(n, 2*time.Second)
		amp := n.rig.Drive.Vibration().Amplitude
		fmt.Printf("  slot %d: %.2f MB/s (head off-track %.0f%% of track pitch)\n",
			n.slot, mbps, amp*100)
	}

	// Prolonged attack: count how long until each node's store crashes.
	fmt.Println("\nprolonged attack (WAL persistence failure expected ≈80 s):")
	for _, n := range nodes {
		start := n.rig.Clock.Now()
		for i := 0; ; i++ {
			if err := n.db.Put(key(i), []byte("payload")); err != nil {
				if crashed, _ := n.db.Crashed(); crashed {
					break
				}
			}
			if n.rig.Clock.Now().Sub(start) > 200*time.Second {
				break
			}
		}
		if crashed, _ := n.db.Crashed(); crashed {
			fmt.Printf("  slot %d: database crashed after %.1f s\n",
				n.slot, n.db.CrashedAt().Sub(start).Seconds())
		} else {
			fmt.Printf("  slot %d: survived the window\n", n.slot)
		}
	}
	fmt.Println("\nOne commodity underwater speaker disabled the entire rack: no drive")
	fmt.Println("in the tower was out of the vulnerable band.")

	// Act two: the facility answers with redundancy. Six containers at
	// 2 m pitch store every object as a 4-of-6 stripe, one shard per
	// failure domain, so the attacker must silence whole containers.
	fmt.Println("\n=== facility scale: 4-of-6 erasure-coded cluster, 6 containers ===")
	for _, speakers := range []int{2, 3} {
		res := serveUnderAttack(speakers)
		fmt.Printf("  %d speakers (point-blank, sustained): GET availability %.0f%%, "+
			"%d degraded reads, P99 %.1f ms\n",
			speakers, res.GetAvailability()*100, res.DegradedReads,
			float64(res.P99)/1e6)
	}
	fmt.Println("\nUp to the parity budget (n−k = 2 containers) every read is served,")
	fmt.Println("degraded, from the surviving shards; one more speaker and the same")
	fmt.Println("attack takes the whole store's availability to zero.")
}

// serveUnderAttack builds the six-container cluster with point-blank
// speakers at the first `speakers` containers, keys them on for the whole
// run, and serves a short read-heavy workload.
func serveUnderAttack(speakers int) cluster.ServeResult {
	targets := make([]int, speakers)
	for i := range targets {
		targets[i] = i
	}
	lay := cluster.LineLayout(6, 2*units.Meter).
		WithSpeakersAt(sig.NewTone(650*units.Hz), targets...)
	c, err := cluster.New(cluster.Config{
		Layout:       lay,
		DataShards:   4,
		ParityShards: 2,
		Objects:      16,
		ObjectSize:   8 << 10,
		Seed:         cluster.Ptr(int64(42)),
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		log.Fatal(err)
	}
	on := make([]bool, speakers)
	for i := range on {
		on[i] = true
	}
	c.SetSchedule([]cluster.ScheduleStep{{At: 0, Active: on}})
	res, err := c.Serve(cluster.TrafficSpec{Requests: 80, Rate: 250})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func runWorkload(n *node, window time.Duration) float64 {
	bench := kvdb.NewBench(n.db, n.rig.Clock)
	res, err := bench.Run(kvdb.BenchSpec{
		Workload:  kvdb.WorkloadReadWhileWriting,
		Runtime:   window,
		ValueSize: 100,
		Seed:      int64(n.slot + 7),
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.ThroughputMBps()
}
