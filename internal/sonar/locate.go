package sonar

import (
	"fmt"
	"math"
	"sort"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/units"
)

// Estimate is a multilaterated source position with uncertainty.
type Estimate struct {
	// Pos is the least-squares source position.
	Pos cluster.Vec3
	// Cov is the position covariance in m² (from the weighted normal
	// equations at the solution). For a planar fix the z row/column are
	// zero: depth was constrained, not estimated.
	Cov [3][3]float64
	// ErrRadius is the scalar one-sigma position uncertainty,
	// sqrt(trace(Cov)) — the radius the defense inflates the predicted
	// blast radius by.
	ErrRadius units.Distance
	// RMS is the weighted RMS range residual in meters at the solution.
	RMS float64
	// Used is how many hydrophones contributed measurements.
	Used int
	// Planar reports the 3-hydrophone fallback: x and y estimated with
	// depth fixed at the array's mean detecting-element depth.
	Planar bool
}

// Locate multilaterates the source position from one key-on event's
// receptions. Four or more detecting hydrophones give a full 3-D fix;
// exactly three fall back to a horizontal fix at the detecting elements'
// mean depth; fewer cannot multilaterate and return an error.
//
// The solver treats each detecting element's measured arrival as a
// pseudorange c·TOA_i = |x − p_i| + b with the shared bias b absorbing
// the unknown emission epoch (pure TDOA — the defender never learns when
// the attacker keyed on, only the pairwise arrival-time structure).
// Measurements are weighted by their per-element timing sigma, seeded
// with a deterministic coarse grid search, and refined by damped
// Gauss-Newton. Everything is closed-form floating point: the same
// receptions always produce the same fix.
func (a Array) Locate(recs []Reception) (Estimate, error) {
	c := a.Medium.SoundSpeed()

	pos := make([]cluster.Vec3, 0, len(recs))
	rho := make([]float64, 0, len(recs)) // pseudorange (m)
	w := make([]float64, 0, len(recs))   // weight (1/m)
	for _, r := range recs {
		if !r.Detected {
			continue
		}
		sig := r.Sigma.Seconds() * c
		if sig <= 0 {
			sig = 1e-6 * c
		}
		pos = append(pos, a.Hydrophones[r.Hydrophone].Pos)
		rho = append(rho, r.TOA.Seconds()*c)
		w = append(w, 1/sig)
	}
	if len(pos) < 3 {
		return Estimate{}, fmt.Errorf("sonar: %d detecting hydrophones, need >= 3 to multilaterate", len(pos))
	}
	zFix := 0.0
	for _, p := range pos {
		zFix += p.Z
	}
	zFix /= float64(len(pos))
	planar := len(pos) == 3
	// One scratch slice of per-element ranges serves every cost and
	// normal-equation evaluation of this fix.
	d := make([]float64, len(pos))

	x := gridSeed(pos, rho, w, d, planar, zFix)
	x, cov, rms, err := gaussNewton(pos, rho, w, d, x, planar, zFix)
	if err != nil && !planar {
		// With every detecting element on one arc the depth axis can be
		// unobservable even with ≥4 detections (the z column of the normal
		// matrix collapses onto the clock-bias column). Degrade to the
		// planar fix rather than fail: horizontal position is still well
		// conditioned, and that is what the blast-radius policy consumes.
		planar = true
		x = gridSeed(pos, rho, w, d, true, zFix)
		x, cov, rms, err = gaussNewton(pos, rho, w, d, x, true, zFix)
	}
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{Pos: x, Cov: cov, RMS: rms, Used: len(pos), Planar: planar}
	est.ErrRadius = units.Distance(math.Sqrt(cov[0][0] + cov[1][1] + cov[2][2]))
	return est, nil
}

// residualCost evaluates the weighted cost at trial position x with the
// clock bias eliminated analytically: for fixed geometry the optimal b is
// the weighted mean of (rho_i − d_i). d is scratch of len(pos); it is
// overwritten with the ranges from x.
func residualCost(pos []cluster.Vec3, rho, w, d []float64, x cluster.Vec3) float64 {
	var sw, sb float64
	for i, p := range pos {
		d[i] = x.Sub(p).Norm()
		ww := w[i] * w[i]
		sw += ww
		sb += ww * (rho[i] - d[i])
	}
	b := sb / sw
	cost := 0.0
	for i := range pos {
		r := (rho[i] - d[i] - b) * w[i]
		cost += r * r
	}
	return cost
}

// gridSeed scans a deterministic coarse grid over the plausible source
// volume (the hydrophone bounding box grown by the detection horizon) and
// returns the lowest-cost cell center — a convergence basin the local
// refinement cannot escape from toward a mirror solution.
func gridSeed(pos []cluster.Vec3, rho, w, d []float64, planar bool, zFix float64) cluster.Vec3 {
	lo, hi := pos[0], pos[0]
	for _, p := range pos[1:] {
		lo.X, lo.Y, lo.Z = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)
		hi.X, hi.Y, hi.Z = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)
	}
	// A detectable source lies within the largest pseudorange of every
	// element; grow the box by that horizon (floored so tank-scale arrays
	// still search a sensible neighborhood).
	horizon := 10.0
	for _, r := range rho {
		if r > horizon {
			horizon = r
		}
	}
	lo.X, lo.Y, lo.Z = lo.X-horizon, lo.Y-horizon, lo.Z-horizon
	hi.X, hi.Y, hi.Z = hi.X+horizon, hi.Y+horizon, hi.Z+horizon

	const n = 14
	best := cluster.Vec3{X: (lo.X + hi.X) / 2, Y: (lo.Y + hi.Y) / 2, Z: (lo.Z + hi.Z) / 2}
	if planar {
		best.Z = zFix
	}
	bestCost := residualCost(pos, rho, w, d, best)
	for i := 0; i <= n; i++ {
		for j := 0; j <= n; j++ {
			x := cluster.Vec3{
				X: lo.X + (hi.X-lo.X)*float64(i)/n,
				Y: lo.Y + (hi.Y-lo.Y)*float64(j)/n,
			}
			kMax := n
			if planar {
				kMax = 0
			}
			for k := 0; k <= kMax; k++ {
				if planar {
					x.Z = zFix
				} else {
					x.Z = lo.Z + (hi.Z-lo.Z)*float64(k)/n
				}
				if cost := residualCost(pos, rho, w, d, x); cost < bestCost {
					bestCost, best = cost, x
				}
			}
		}
	}
	return best
}

// gaussNewton refines the fix with Levenberg-damped Gauss-Newton over
// (x, y, z, b) — or (x, y, b) for a planar fix — and returns the position
// covariance from the weighted normal equations at the solution. d is
// scratch of len(pos), shared with residualCost: each iteration fills it
// with the ranges from x and is done with them before residualCost
// overwrites it.
func gaussNewton(pos []cluster.Vec3, rho, w, d []float64, x0 cluster.Vec3, planar bool, zFix float64) (cluster.Vec3, [3][3]float64, float64, error) {
	dim := 4 // x, y, z, b
	if planar {
		dim = 3 // x, y, b
		x0.Z = zFix
	}
	x := x0
	cost := residualCost(pos, rho, w, d, x)
	lambda := 1e-3
	var jtj [4][4]float64
	for iter := 0; iter < 80; iter++ {
		// Assemble the weighted normal equations. b is re-eliminated each
		// iteration inside residualCost; here it is an explicit unknown so
		// the covariance accounts for its correlation with position.
		var sw, sb float64
		for i, p := range pos {
			d[i] = math.Max(x.Sub(p).Norm(), 1e-9)
			ww := w[i] * w[i]
			sw += ww
			sb += ww * (rho[i] - d[i])
		}
		b := sb / sw

		var jtr [4]float64
		jtj = [4][4]float64{}
		for i, p := range pos {
			u := x.Sub(p)
			// Residual r = rho − d − b; Jacobian of r wrt (x,y,z,b).
			var row [4]float64
			row[0] = -u.X / d[i]
			row[1] = -u.Y / d[i]
			if planar {
				row[2] = -1 // b occupies slot 2 in planar mode
			} else {
				row[2] = -u.Z / d[i]
				row[3] = -1
			}
			ri := rho[i] - d[i] - b
			ww := w[i] * w[i]
			for a := 0; a < dim; a++ {
				jtr[a] -= ww * row[a] * ri // step solves (JᵀWJ)δ = −JᵀWr
				for bb := 0; bb < dim; bb++ {
					jtj[a][bb] += ww * row[a] * row[bb]
				}
			}
		}
		damped := jtj
		for a := 0; a < dim; a++ {
			damped[a][a] *= 1 + lambda
		}
		step, ok := solve(damped, jtr, dim)
		if !ok {
			return x, [3][3]float64{}, 0, fmt.Errorf("sonar: degenerate array geometry, normal equations singular")
		}
		next := x
		next.X += step[0]
		next.Y += step[1]
		if !planar {
			next.Z += step[2]
		}
		if nextCost := residualCost(pos, rho, w, d, next); nextCost < cost {
			stepNorm := math.Sqrt(step[0]*step[0] + step[1]*step[1] + step[2]*step[2])
			x, cost = next, nextCost
			lambda = math.Max(lambda/3, 1e-9)
			if stepNorm < 1e-7 {
				break
			}
		} else {
			lambda *= 4
			if lambda > 1e9 {
				break
			}
		}
	}

	// Covariance: invert the undamped normal matrix and keep the position
	// block. Weights are 1/sigma_i, so JᵀWJ is already in 1/m² units.
	inv, ok := invert(jtj, dim)
	if !ok {
		return x, [3][3]float64{}, 0, fmt.Errorf("sonar: degenerate array geometry, covariance singular")
	}
	var cov [3][3]float64
	pdim := 3
	if planar {
		pdim = 2
	}
	for a := 0; a < pdim; a++ {
		for bb := 0; bb < pdim; bb++ {
			cov[a][bb] = inv[a][bb]
		}
	}
	rms := math.Sqrt(residualCost(pos, rho, w, d, x) / float64(len(pos)))
	return x, cov, rms, nil
}

// pivotTol returns the relative singularity threshold for a dim×dim
// matrix: pivots below 1e-12 of the largest entry magnitude are treated
// as zero. An absolute cutoff would misfire here — the weighted normal
// matrices carry w² factors that put entries anywhere from 1e-2 to 1e6.
func pivotTol(a [4][4]float64, dim int) float64 {
	maxAbs := 0.0
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			if v := math.Abs(a[r][c]); v > maxAbs {
				maxAbs = v
			}
		}
	}
	if maxAbs == 0 {
		return 1e-300
	}
	return 1e-12 * maxAbs
}

// solve performs Gaussian elimination with partial pivoting on the
// dim×dim system A·x = y.
func solve(a [4][4]float64, y [4]float64, dim int) ([4]float64, bool) {
	tol := pivotTol(a, dim)
	for col := 0; col < dim; col++ {
		piv := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < tol {
			return [4]float64{}, false
		}
		a[col], a[piv] = a[piv], a[col]
		y[col], y[piv] = y[piv], y[col]
		for r := col + 1; r < dim; r++ {
			f := a[r][col] / a[col][col]
			for cc := col; cc < dim; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			y[r] -= f * y[col]
		}
	}
	var x [4]float64
	for r := dim - 1; r >= 0; r-- {
		s := y[r]
		for cc := r + 1; cc < dim; cc++ {
			s -= a[r][cc] * x[cc]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

// invert inverts the dim×dim leading block of a by Gauss-Jordan
// elimination with partial pivoting.
func invert(a [4][4]float64, dim int) ([4][4]float64, bool) {
	var inv [4][4]float64
	for i := 0; i < dim; i++ {
		inv[i][i] = 1
	}
	tol := pivotTol(a, dim)
	for col := 0; col < dim; col++ {
		piv := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < tol {
			return inv, false
		}
		a[col], a[piv] = a[piv], a[col]
		inv[col], inv[piv] = inv[piv], inv[col]
		f := a[col][col]
		for cc := 0; cc < dim; cc++ {
			a[col][cc] /= f
			inv[col][cc] /= f
		}
		for r := 0; r < dim; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			for cc := 0; cc < dim; cc++ {
				a[r][cc] -= f * a[col][cc]
				inv[r][cc] -= f * inv[col][cc]
			}
		}
	}
	return inv, true
}

// Detection is one attacker key-on event as the surveillance layer saw
// it: which speaker keyed on, when, what the array heard, and the
// localization fix (when enough elements detected the tone).
type Detection struct {
	// Speaker indexes the layout's speaker that keyed on.
	Speaker int
	// KeyOn is the schedule offset at which the speaker started emitting.
	KeyOn time.Duration
	// Heard is how many hydrophones detected the tone.
	Heard int
	// FirstHeard is the offset at which the first element detected the
	// arrival (KeyOn + shortest propagation delay).
	FirstHeard time.Duration
	// FixAt is the offset at which the localization fix became available:
	// the last detecting element's arrival plus one processing window.
	FixAt time.Duration
	// Latency is FixAt − KeyOn, the detection latency the closed loop
	// pays before it can react.
	Latency time.Duration
	// OK reports whether multilateration produced a fix.
	OK bool
	// Est is the position estimate; valid only when OK.
	Est Estimate
	// Receptions are the per-element measurements.
	Receptions []Reception
}

// DetectSchedule runs the surveillance layer over an attack schedule:
// every speaker key-on is an onset event the array hears, times, and
// multilaterates independently (the keying-on transient separates
// same-frequency sources in time, so each onset is associated with its
// own TDOA set). Noise draws are seeded per onset event with
// parallel.SeedFor, so the detection timeline is byte-identical for any
// worker count of the surrounding experiment.
func DetectSchedule(lay cluster.Layout, a Array, steps []cluster.ScheduleStep, seed int64) []Detection {
	sorted := append([]cluster.ScheduleStep(nil), steps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	var out []Detection
	active := make([]bool, len(lay.Speakers))
	event := 0
	for _, step := range sorted {
		for s := range lay.Speakers {
			on := step.Active != nil && s < len(step.Active) && step.Active[s]
			if on && !active[s] {
				recs := a.Receive(lay.Speakers[s].Pos, lay.Speakers[s].Tone, parallel.SeedFor(seed, event))
				event++
				det := Detection{Speaker: s, KeyOn: step.At, Receptions: recs}
				first, last := time.Duration(math.MaxInt64), time.Duration(0)
				for _, r := range recs {
					if !r.Detected {
						continue
					}
					det.Heard++
					if r.Delay < first {
						first = r.Delay
					}
					if r.TOA > last {
						last = r.TOA
					}
				}
				if det.Heard > 0 {
					det.FirstHeard = step.At + first
					det.FixAt = step.At + last + processingWindow
					det.Latency = det.FixAt - step.At
					if est, err := a.Locate(recs); err == nil {
						det.OK = true
						det.Est = est
					}
				}
				out = append(out, det)
			}
			if step.Active == nil {
				active[s] = false
			} else {
				active[s] = on
			}
		}
	}
	return out
}

// PublishMetrics pushes the surveillance layer's counters (under the
// "sonar." prefix) into a registry. No-op on nil.
func PublishMetrics(reg *metrics.Registry, dets []Detection) {
	if reg == nil {
		return
	}
	for _, d := range dets {
		reg.Add("sonar.key_on_events", 1)
		reg.Add("sonar.receptions", int64(len(d.Receptions)))
		reg.Add("sonar.detections", int64(d.Heard))
		if !d.OK {
			reg.Add("sonar.missed_fixes", 1)
			continue
		}
		reg.Add("sonar.fixes", 1)
		reg.Observe("sonar.fix_latency_ns", int64(d.Latency))
		reg.MaxGauge("sonar.err_radius_m", float64(d.Est.ErrRadius))
	}
}
