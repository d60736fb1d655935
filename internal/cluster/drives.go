package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/enclosure"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/netstore"
	"deepnote/internal/parallel"
	"deepnote/internal/sched"
	"deepnote/internal/simclock"
)

// DriveStack is one drive's full victim stack: mechanics on its own
// virtual clock, a block device, and a netstore front end. Each drive
// owning its clock (rather than sharing one) is what makes the bulk-
// synchronous serving engines deterministic at any worker count: a
// drive's timeline depends only on the ops queued to it, never on how
// goroutines interleave.
type DriveStack struct {
	Site, Container int
	Server          *netstore.Server
	// Runner is the drive's discrete-event dispatcher: its queue holds
	// this drive's pending shard ops in (time, issue-seq) order, and its
	// clock is the drive's own virtual clock.
	Runner sched.Runner

	asm     enclosure.Assembly
	clock   *simclock.Virtual
	drive   *hdd.Drive
	disk    *blockdev.Disk
	stepIdx int
}

// DriveSpec sizes a drive substrate.
type DriveSpec struct {
	// Sites are the acoustically isolated facilities, one layout each.
	Sites []Layout
	// PerContainer is how many drives each container hosts; drives
	// occupy tower slots bottom-up.
	PerContainer int
	// Coder stripes every object; Objects and ObjectSize size the
	// keyspace.
	Coder               *Coder
	Objects, ObjectSize int
	// Seed is the root seed the per-drive sub-seeds derive from.
	Seed int64
	// Workers bounds the fan-out across drives (≤ 0 = all CPUs).
	Workers int
}

// driveSite is one facility's slice of the substrate and its attack.
type driveSite struct {
	layout     Layout
	base, size int // first stack index and stack count
	// tf caches the per-(speaker, local drive) acoustic transfer gain —
	// the full chain walk evaluated once at construction. Layouts and
	// tones are immutable afterwards, so the cache is never invalidated;
	// schedule steps only superpose cached gains (see internal/sched).
	tf       sched.TransferCache
	schedule []ScheduleStep
	// vibs[step][local] is the precomputed superposed vibration.
	vibs [][]hdd.Vibration
}

// Drives is the drive substrate both serving tiers run on: every drive
// stack of every site, the objects' cached stripes, and each site's
// acoustic attack. The cluster tier builds it with one site, the fleet
// tier with one per facility, so both agree bit for bit on what a
// speaker does to a drive.
type Drives struct {
	// Stacks holds every drive, in site → container → slot order.
	Stacks []*DriveStack
	// Stripes caches each object's encoded shards; client PUTs rewrite
	// the same deterministic content, so ShardOp's GET check is exact.
	Stripes [][][]byte

	model      hdd.Model
	objectSize int
	workers    int
	sites      []driveSite
	// origin is the serving origin as a clock Nanos reading (every clock
	// reads the same after Preload aligns them); preloaded reports that
	// Preload has set it.
	origin    int64
	preloaded bool
}

// NewDrives builds the substrate. Drive idx (in stack order) gets
// mechanics seed SeedFor(Seed, 2·idx) and network seed
// SeedFor(Seed, 2·idx+1).
func NewDrives(spec DriveSpec) (*Drives, error) {
	d := &Drives{
		model:      hdd.Barracuda500(),
		objectSize: spec.ObjectSize,
		workers:    spec.Workers,
		sites:      make([]driveSite, len(spec.Sites)),
	}
	net := netstore.Config{ObjectSize: spec.Coder.ShardSize(spec.ObjectSize)}
	// The local keyspace is doubled: keys [0, Objects) hold home shards,
	// [Objects, 2·Objects) hold defense replicas (shard re-placements
	// steered here by an active cluster Defense plan). Without a defense
	// the upper half is never addressed; Objects only bounds-checks
	// requests, so the doubling changes nothing else.
	net.Objects = 2 * spec.Objects
	for s, lay := range spec.Sites {
		site := &d.sites[s]
		site.layout, site.base = lay, len(d.Stacks)
		for ct := range lay.Containers {
			asm, err := lay.Containers[ct].Scenario.Assembly()
			if err != nil {
				return nil, err
			}
			for slot := 0; slot < spec.PerContainer; slot++ {
				driveAsm := asm
				if asm.Mount.Tower != nil {
					driveAsm.Mount = enclosure.TowerMount(*asm.Mount.Tower, slot%asm.Mount.Tower.Slots)
				}
				idx := len(d.Stacks)
				clock := simclock.NewVirtual()
				drive, err := hdd.NewDrive(d.model, clock, parallel.SeedFor(spec.Seed, 2*idx))
				if err != nil {
					return nil, err
				}
				disk := blockdev.NewDisk(drive)
				net.Seed = parallel.SeedFor(spec.Seed, 2*idx+1)
				st := &DriveStack{
					Site: s, Container: ct, Server: netstore.NewServer(disk, clock, net),
					asm: driveAsm, clock: clock, drive: drive, disk: disk, stepIdx: -1,
				}
				st.Runner.Clock = clock
				d.Stacks = append(d.Stacks, st)
			}
		}
		site.size = len(d.Stacks) - site.base
		// Precompute every speaker→drive transfer function once, so
		// attack schedules only superpose cached gains (keying speakers
		// on/off never re-walks the chain).
		site.tf.Ensure(len(lay.Speakers), site.size, func(sp, local int) float64 {
			st := d.Stacks[site.base+local]
			return lay.SpeakerAmp(sp, st.Container, st.asm, d.model)
		})
	}
	d.Stripes = make([][][]byte, spec.Objects)
	for o := range d.Stripes {
		d.Stripes[o] = spec.Coder.Encode(d.Payload(o))
	}
	return d, nil
}

// Site returns site s's first stack index and stack count.
func (d *Drives) Site(s int) (base, size int) { return d.sites[s].base, d.sites[s].size }

// Payload is the deterministic content of object o. Client PUTs write
// the same bytes, so its stripe is what every shard read must return.
func (d *Drives) Payload(o int) []byte {
	b := make([]byte, d.objectSize)
	for i := range b {
		b[i] = byte((o*131 + i*7 + (i>>8)*13) ^ 0x5a)
	}
	return b
}

// SetSchedule programs site s's attack: steps sorted by offset; before
// the first step (and with no steps) every speaker at the site is
// silent. Vibrations for every (step, drive) pair are superposed up
// front from the cached transfer functions — a schedule change costs
// O(steps·drives·speakers) float adds, never an acoustic chain walk.
func (d *Drives) SetSchedule(s int, steps []ScheduleStep) {
	site := &d.sites[s]
	speakers := len(site.layout.Speakers)
	site.schedule = append([]ScheduleStep(nil), steps...)
	sort.SliceStable(site.schedule, func(i, j int) bool { return site.schedule[i].At < site.schedule[j].At })
	site.vibs = make([][]hdd.Vibration, len(site.schedule))
	freq := site.layout.toneFreq()
	for si, step := range site.schedule {
		active := step.Active
		if active == nil {
			active = make([]bool, speakers) // nil step mask = all silent
		}
		site.vibs[si] = make([]hdd.Vibration, site.size)
		for local := range site.vibs[si] {
			site.vibs[si][local] = superpose(freq, speakers,
				func(sp int) float64 { return site.tf.Gain(sp, local) }, active)
		}
	}
	for _, st := range d.Stacks[site.base : site.base+site.size] {
		st.stepIdx = -1
		st.drive.SetVibration(hdd.Quiet())
	}
}

// apply advances drive di's vibration to its site's schedule step in
// effect at the drive's current offset. Per drive, op start offsets are
// nondecreasing (an op starts at max(arrival, drive now) and the clock
// never rewinds), so the step index only moves forward and the scan
// resumes where the previous op left it.
func (d *Drives) apply(di int) {
	st := d.Stacks[di]
	site := &d.sites[st.Site]
	offset := time.Duration(st.clock.Nanos() - d.origin)
	step := st.stepIdx
	for step+1 < len(site.schedule) && site.schedule[step+1].At <= offset {
		step++
	}
	if step == st.stepIdx {
		return
	}
	st.stepIdx = step
	st.drive.SetVibration(site.vibs[step][di-site.base])
}

// Preload writes shard j of every object o to drive place(o, j) before
// serving starts (speakers silent), then aligns every clock to the
// slowest drive's: serving offsets are measured from there.
func (d *Drives) Preload(place func(o, j int) int) error {
	// Group each drive's shards up front; per-drive execution is
	// self-contained, so the fan-out is deterministic.
	work := make([][][2]int, len(d.Stacks)) // drive -> list of (object, shard)
	for o := range d.Stripes {
		for j := range d.Stripes[o] {
			di := place(o, j)
			work[di] = append(work[di], [2]int{o, j})
		}
	}
	_, err := parallel.Run(context.Background(), parallel.Indices(len(d.Stacks)), d.workers,
		func(_ context.Context, di int, _ int) (struct{}, error) {
			for _, oj := range work[di] {
				_, resp := d.Stacks[di].Server.HandleObjectShared(netstore.Put, oj[0], d.Stripes[oj[0]][oj[1]])
				if resp.Err != nil {
					return struct{}{}, fmt.Errorf("preload object %d shard %d on drive %d: %w",
						oj[0], oj[1], di, resp.Err)
				}
			}
			return struct{}{}, nil
		})
	if err != nil {
		return err
	}
	d.origin = d.Stacks[0].clock.Nanos()
	for _, st := range d.Stacks[1:] {
		d.origin = max(d.origin, st.clock.Nanos())
	}
	for _, st := range d.Stacks {
		if dt := d.origin - st.clock.Nanos(); dt > 0 {
			st.clock.Sleep(time.Duration(dt))
		}
	}
	d.preloaded = true
	return nil
}

// ShardOp runs one shard op on drive di's netstore under local key: a
// PUT writes shard `shard` of object's stripe, a GET reads key back and
// compares the bytes with that stripe shard. This is the one integrity
// contract of both serving tiers, the end-to-end checksum: ok reports a
// durable write or a read whose bytes match; checksum reports a read whose
// bytes came back but differ (a vibration-corrupted sector, a replica
// write that never landed), which fails the op — a mismatching shard is
// never served. It allocates nothing: the server hands out a view of its
// request buffer.
func (d *Drives) ShardOp(di int, put bool, key, object, shard int) (ok, checksum bool) {
	srv, stripe := d.Stacks[di].Server, d.Stripes[object][shard]
	if put {
		_, resp := srv.HandleObjectShared(netstore.Put, key, stripe)
		return resp.Err == nil, false
	}
	data, resp := srv.HandleObjectShared(netstore.Get, key, nil)
	if resp.Err != nil {
		return false, false
	}
	ok = bytes.Equal(data, stripe)
	return ok, !ok
}

// Preloaded reports whether Preload has set the serving origin.
func (d *Drives) Preloaded() bool { return d.preloaded }

// Offset returns drive di's current time in nanoseconds from the
// serving origin.
func (d *Drives) Offset(di int) int64 { return d.Stacks[di].clock.Nanos() - d.origin }

// Drain runs every drive's event queue to empty, fanning out across
// Workers. Before each event the drive's vibration is advanced to the
// attack step in force, then dispatch runs the op. Each drive is
// self-contained — own queue, own clock, own RNGs — so dispatch must
// touch only drive di's state and read-only shared data; the fan-out
// then never changes results, only wall-clock time.
func (d *Drives) Drain(dispatch func(di int, it sched.Item)) error {
	_, err := parallel.Run(context.Background(), parallel.Indices(len(d.Stacks)), d.workers,
		func(_ context.Context, di int, _ int) (struct{}, error) {
			d.Stacks[di].Runner.Run(d.origin, func(it sched.Item) {
				d.apply(di)
				dispatch(di, it)
			})
			return struct{}{}, nil
		})
	return err
}

// PublishMetrics pushes every drive stack's hdd/blockdev/netstore
// counters into a registry.
func (d *Drives) PublishMetrics(reg *metrics.Registry) {
	for _, st := range d.Stacks {
		st.drive.PublishMetrics(reg)
		st.disk.PublishMetrics(reg)
		st.Server.PublishMetrics(reg)
	}
}
