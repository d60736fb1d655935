package cluster

import (
	"fmt"
	"sort"
	"time"

	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// SourceFix is one localized acoustic source as the surveillance layer
// (internal/sonar) reported it: when the fix became available, where the
// source is believed to be, how uncertain that belief is, and what tone
// it emits. The cluster consumes plain fixes rather than sonar types so
// the dependency points one way (sonar imports cluster for the layout).
type SourceFix struct {
	// At is the offset from serving start at which the fix became
	// available to the controller.
	At time.Duration
	// Pos is the estimated source position.
	Pos Vec3
	// Err is the scalar position uncertainty (one sigma); the predicted
	// blast radius conservatively assumes the source is Err closer to
	// each container than the estimate says.
	Err units.Distance
	// Tone is the emitted tone the fix was made on.
	Tone sig.Tone
	// Confidence is the detection layer's belief that the fix describes
	// a genuinely hostile source, in [0, 1] — typically the fused
	// fingerprint verdict's confidence. Zero means "unscored" and passes
	// any gate only when MinConfidence is unset or zero.
	Confidence float64
}

// DefenseSpec configures the closed-loop acoustic defense: localization
// fixes in, predicted blast radius out, GETs steered to shards outside
// the radius, and at-risk shards preemptively re-placed onto safe drives.
type DefenseSpec struct {
	// Fixes are the localization events, in any order.
	Fixes []SourceFix
	// Margin scales the at-risk threshold: a drive is inside the blast
	// radius when its predicted off-track amplitude reaches
	// Margin × ServoLockFrac. Nil means the default 0.5 — react well
	// before the drive actually loses servo lock; Ptr(0.0) is maximum
	// paranoia (every container with any predicted excitation is at
	// risk), which is a meaningful setting and therefore honored.
	Margin *float64
	// React is the controller lag between a fix arriving and the policy
	// switching: re-planning, rerouting tables, kicking off the
	// re-placement writes. Nil means the default 50 ms; Ptr(0) is an
	// idealized instant controller and is honored.
	React *time.Duration
	// MinConfidence gates escalation on the detection layer's verdict:
	// fixes whose Confidence falls below it are dropped before the plan
	// compiles, so a benign-noise misfire cannot trigger evacuations.
	// Nil means 0 (every fix escalates — the pre-fingerprint behavior);
	// must be in [0, 1].
	MinConfidence *float64
}

func (s DefenseSpec) withDefaults() DefenseSpec {
	if s.Margin == nil {
		s.Margin = Ptr(0.5)
	}
	if s.React == nil {
		s.React = Ptr(50 * time.Millisecond)
	}
	if s.MinConfidence == nil {
		s.MinConfidence = Ptr(0.0)
	}
	return s
}

// srcRef names one source for a shard read: the shard index in the low
// 16 bits, and either the home drive (alt = 0) or a replica on container
// alt−1 in the high bits.
type srcRef uint32

func homeRef(shard int) srcRef    { return srcRef(uint16(shard)) }
func altRef(shard, ct int) srcRef { return srcRef(uint16(shard)) | srcRef(ct+1)<<16 }
func (r srcRef) shard() int       { return int(uint16(r)) }
func (r srcRef) altContainer() (int, bool) {
	ct := int(r >> 16)
	return ct - 1, ct != 0
}

// evacOp is one planned preemptive shard re-placement: write the shard's
// bytes to a safe drive (as local object shard.object+Objects) the moment
// the owning phase activates.
type evacOp struct {
	at     int64 // activation offset (ns from origin)
	object int32
	shard  uint16
	drive  int32 // target drive index
	ok     bool  // outcome of the last Serve's write
}

// defensePhase is the policy in force from at until the next phase: which
// containers are inside the predicted blast radius, and the GET source
// order for every placement class.
type defensePhase struct {
	at     int64
	atRisk []bool // per container
	// orders[class] is the length-n GET source order: healthy sources
	// first (home drives outside the radius, then replicas of evacuated
	// at-risk shards), at-risk leftovers last. class encodes everything
	// placement depends on: (object mod C) and the drive slot.
	orders [][]srcRef
}

// defenseState is the compiled defense plan. It is computed once in
// SetDefense from the fixes and the layout — never from traffic — so the
// serving engine stays deterministic at any worker count.
type defenseState struct {
	spec    DefenseSpec
	phases  []defensePhase
	evacs   []evacOp // nondecreasing in at (see SetDefense)
	skipped int      // shard re-placements with no safe target container
}

// phaseFor returns the index of the phase in force at offset ns, or −1
// before the first activation.
func (d *defenseState) phaseFor(ns int64) int {
	p := sort.Search(len(d.phases), func(i int) bool { return d.phases[i].at > ns }) - 1
	return p
}

// class collapses an object to its placement class: objects with the same
// (o mod C, slot) see identical container geometry, so defense orders and
// evacuation targets are computed once per class and shared.
func (c *Cluster) class(o int) int {
	C := len(c.cfg.Layout.Containers)
	return (o%C)*c.cfg.DrivesPerContainer + (o/C)%c.cfg.DrivesPerContainer
}

// defenseOrder returns the GET source order for a request, or nil when
// the request predates the first defense phase (or defense is off) and
// the engine should use the identity order.
func (c *Cluster) defenseOrder(r *reqState) []srcRef {
	if c.defense == nil || r.phase == 0 {
		return nil
	}
	return c.defense.phases[r.phase-1].orders[c.class(int(r.object))]
}

// resolveSource maps one source reference for a request to the drive to
// queue on, the shard it yields, and the event flag (evReplica when the
// source is a defense replica rather than the shard's home).
func (c *Cluster) resolveSource(r *reqState, ref srcRef) (drive, shard int, flags uint8) {
	j := ref.shard()
	if ct, ok := ref.altContainer(); ok {
		slot := (int(r.object) / len(c.cfg.Layout.Containers)) % c.cfg.DrivesPerContainer
		return ct*c.cfg.DrivesPerContainer + slot, j, evReplica
	}
	return c.shardDrive(int(r.object), j), j, 0
}

// SetDefense compiles the closed-loop defense plan from localization
// fixes. Each fix activates a phase React after it arrives: the predicted
// blast radius is evaluated against every drive through the same
// acoustic transfer chain the attack simulation uses (conservatively
// moving the source Err closer), at-risk containers accumulate across
// phases (a region once predicted hot stays hot — the attacker does not
// un-ring the bell), GET source orders are rebuilt per phase, and one
// re-placement write is planned for every shard whose home — or whose
// earlier replica — fell inside the radius. Passing an empty fix list
// disables the defense.
//
// The plan depends only on the layout, the fixes, and the erasure
// geometry; Serve replays it deterministically at any worker count.
func (c *Cluster) SetDefense(spec DefenseSpec) error {
	if len(spec.Fixes) == 0 {
		c.defense = nil
		return nil
	}
	spec = spec.withDefaults()
	if mc := *spec.MinConfidence; mc < 0 || mc > 1 {
		return fmt.Errorf("cluster: MinConfidence %g must be in [0, 1]", mc)
	}
	fixes := make([]SourceFix, 0, len(spec.Fixes))
	for _, fx := range spec.Fixes {
		if fx.Confidence >= *spec.MinConfidence {
			fixes = append(fixes, fx)
		}
	}
	if len(fixes) == 0 {
		// Every fix fell below the confidence gate: nothing escalates.
		c.defense = nil
		return nil
	}
	sort.SliceStable(fixes, func(i, j int) bool { return fixes[i].At < fixes[j].At })
	spec.Fixes = fixes

	stacks, model := c.drives.Stacks, c.drives.model
	threshold := *spec.Margin * model.ServoLockFrac

	C := len(c.cfg.Layout.Containers)
	dpc := c.cfg.DrivesPerContainer
	n := c.coder.TotalShards()
	classes := C * dpc

	ds := &defenseState{spec: spec}

	// Coalesce fixes into phases (simultaneous activations merge), with
	// the at-risk container set accumulating.
	hot := make([]bool, C)
	for f := 0; f < len(fixes); {
		at := int64(fixes[f].At + *spec.React)
		for f < len(fixes) && int64(fixes[f].At+*spec.React) == at {
			fx := fixes[f]
			for _, d := range stacks {
				if c.cfg.Layout.PredictedAmp(fx.Pos, fx.Err, fx.Tone, d.Container, d.asm, model) >= threshold {
					hot[d.Container] = true
				}
			}
			f++
		}
		ds.phases = append(ds.phases, defensePhase{at: at, atRisk: append([]bool(nil), hot...)})
	}
	if len(ds.phases) > 255 {
		return fmt.Errorf("cluster: defense plan has %d phases, max 255", len(ds.phases))
	}

	// Per-class planning: track each shard's current replica container
	// across phases, plan re-placements, and build the source orders.
	replicaCt := make([][]int, classes)
	for cl := range replicaCt {
		replicaCt[cl] = make([]int, n)
		for j := range replicaCt[cl] {
			replicaCt[cl][j] = -1
		}
	}
	type classEvac struct{ shard, targetCt int }
	classEvacs := make([][][]classEvac, len(ds.phases)) // [phase][class]
	for p := range ds.phases {
		ph := &ds.phases[p]
		ph.orders = make([][]srcRef, classes)
		classEvacs[p] = make([][]classEvac, classes)
		for cl := 0; cl < classes; cl++ {
			ctBase := cl / dpc
			rep := replicaCt[cl]
			// Plan re-placements: shards whose home is hot and whose
			// replica is missing or has itself gone hot.
			for j := 0; j < n; j++ {
				if !ph.atRisk[(ctBase+j)%C] {
					continue
				}
				if rc := rep[j]; rc >= 0 && !ph.atRisk[rc] {
					continue
				}
				target := pickEvacTarget(ctBase, rep, ph.atRisk, C, n)
				if target < 0 {
					rep[j] = -1
					classEvacs[p][cl] = append(classEvacs[p][cl], classEvac{shard: j, targetCt: -1})
					continue
				}
				rep[j] = target
				classEvacs[p][cl] = append(classEvacs[p][cl], classEvac{shard: j, targetCt: target})
			}
			// Source order: healthy sources in shard order, then the
			// at-risk leftovers. Every shard appears exactly once.
			order := make([]srcRef, 0, n)
			for j := 0; j < n; j++ {
				switch {
				case !ph.atRisk[(ctBase+j)%C]:
					order = append(order, homeRef(j))
				case rep[j] >= 0 && !ph.atRisk[rep[j]]:
					order = append(order, altRef(j, rep[j]))
				}
			}
			for j := 0; j < n; j++ {
				if ph.atRisk[(ctBase+j)%C] && !(rep[j] >= 0 && !ph.atRisk[rep[j]]) {
					order = append(order, homeRef(j))
				}
			}
			ph.orders[cl] = order
		}
	}

	// Expand class-level re-placements to concrete per-object writes, in
	// deterministic (phase, object, shard) order. Phases activate in
	// increasing time (the fixes were stable-sorted, and simultaneous
	// activations merged), so the evac list comes out nondecreasing in
	// at — the order Serve pushes it in, interleaved with the requests.
	for p := range ds.phases {
		for o := 0; o < c.cfg.Objects; o++ {
			cl := c.class(o)
			slot := (o / C) % dpc
			for _, ce := range classEvacs[p][cl] {
				if ce.targetCt < 0 {
					ds.skipped++
					continue
				}
				ds.evacs = append(ds.evacs, evacOp{
					at:     ds.phases[p].at,
					object: int32(o),
					shard:  uint16(ce.shard),
					drive:  int32(ce.targetCt*dpc + slot),
				})
			}
		}
	}

	c.defense = ds
	return nil
}

// Defended reports whether a defense plan is active.
func (c *Cluster) Defended() bool { return c.defense != nil }

// DefenseEvacsPlanned returns how many re-placement writes the plan
// schedules (and how many shards had no safe target).
func (c *Cluster) DefenseEvacsPlanned() (planned, skipped int) {
	if c.defense == nil {
		return 0, 0
	}
	return len(c.defense.evacs), c.defense.skipped
}

// pickEvacTarget chooses the container to host a replica for one shard of
// placement class ctBase: the first container, scanning upward from just
// past the stripe's home span, that is outside the blast radius and not
// already holding a replica of this object — preferring containers that
// hold no shard of the object at all (replicas keep full failure-domain
// separation when spare containers exist, and only co-locate with another
// shard when the stripe already spans every container). Returns −1 when
// every candidate is inside the radius.
func pickEvacTarget(ctBase int, replicaCt []int, atRisk []bool, C, n int) int {
	taken := func(ct int) bool {
		for _, rc := range replicaCt {
			if rc == ct {
				return true
			}
		}
		return false
	}
	for pass := 0; pass < 2; pass++ {
		for d := 0; d < C; d++ {
			ct := (ctBase + n + d) % C
			if atRisk[ct] || taken(ct) {
				continue
			}
			if pass == 0 && ((ct-ctBase)%C+C)%C < n {
				continue // hosts a shard of this object; prefer spares
			}
			return ct
		}
	}
	return -1
}
