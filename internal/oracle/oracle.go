// Package oracle is the analytic counterpart of the drive simulator: a
// closed-form predictor that, for any (model, vibration, op, block size),
// computes per-chunk success probability, expected retries via the
// geometric distribution, expected per-op latency, and steady-state
// sequential throughput — without ever touching a clock or an RNG.
//
// The derivation follows Shahrad et al. ("Acoustic Denial of Service
// Attacks on HDDs"): one positioning attempt survives a hold window of
// width w radians when A·max|sin| over the window plus half-normal jitter
// stays under the fault threshold, so the per-attempt success probability
// is an integral of the jitter CDF over the uniformly random phase. Every
// chunk then retries independently under the drive's bounded retry budget,
// which makes attempt counts truncated-geometric and op latency a finite
// mixture the package evaluates exactly.
//
// Because the oracle shares no code path with Drive.Access beyond the
// window-peak geometry, agreement between the two is a real correctness
// check: the Differ in this package sweeps a grid of cells comparing
// oracle prediction against Monte-Carlo simulation and fails on divergence
// beyond a stated tolerance. The Mutation variants re-introduce known
// historical timing bugs into the predictor so tests can prove the
// differential harness actually trips when the simulator and the physics
// disagree.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"time"

	"deepnote/internal/hdd"
)

// Mutation selects a deliberately wrong variant of the predictor. Each
// value replicates one historical timing-accounting bug of the simulator,
// so a mutation test can assert that the differential harness fails when
// (and only when) predictor and simulator model different physics.
type Mutation int

// Mutations. MutNone is the faithful predictor.
const (
	MutNone Mutation = iota
	// MutFlatHoldWindow computes every chunk's hold window from the
	// outer-diameter transfer rate, ignoring zoned recording — the bug
	// that understated vulnerability at high offsets.
	MutFlatHoldWindow
	// MutWholeRequestWindow evaluates the entire request as one hold
	// window instead of independent per-chunk windows — the bug that made
	// an earlier Monte-Carlo success model a different random process than
	// the simulator for any multi-chunk request.
	MutWholeRequestWindow
	// MutFullBaseOnFailure charges a failed op the media-transfer time of
	// every chunk, including chunks never attempted after the failing one
	// — the bug that overreported failed-op latency.
	MutFullBaseOnFailure
)

// String names the mutation.
func (mu Mutation) String() string {
	switch mu {
	case MutNone:
		return "none"
	case MutFlatHoldWindow:
		return "flat-hold-window"
	case MutWholeRequestWindow:
		return "whole-request-window"
	case MutFullBaseOnFailure:
		return "full-base-on-failure"
	default:
		return fmt.Sprintf("mutation(%d)", int(mu))
	}
}

// Input identifies one operating point to predict.
type Input struct {
	// Model is the drive under excitation.
	Model hdd.Model
	// Vib is the excitation state at the head.
	Vib hdd.Vibration
	// Op is the access kind.
	Op hdd.Op
	// Offset is the byte offset of the access; zoned recording makes
	// inner offsets slower and more vulnerable.
	Offset int64
	// BlockSize is the per-request transfer length in bytes.
	BlockSize int64
}

// Prediction is the closed-form expectation of what Drive.Access does at
// one operating point, plus the steady-state throughput of a sequential
// workload issuing such ops back to back.
type Prediction struct {
	// PerAttempt is the probability that a single positioning attempt of
	// the first chunk holds track.
	PerAttempt float64
	// ChunkFail is the probability that the first chunk exhausts its
	// retry budget.
	ChunkFail float64
	// OpSuccess is the probability the whole op completes (every chunk
	// succeeds within its budget).
	OpSuccess float64
	// ExpRetries is the expected number of positioning retries per op,
	// averaged over successes and failures.
	ExpRetries float64
	// MeanOKLatency and MeanFailLatency are the expected latencies of
	// completed and failed ops; MeanLatency mixes them by outcome
	// probability. All include the steady-state share of post-failure
	// reseeks.
	MeanOKLatency, MeanFailLatency, MeanLatency time.Duration
	// ThroughputMBps is the steady-state sequential payload throughput
	// in decimal MB/s (completed bytes over wall time, the paper's
	// Figure 2 metric).
	ThroughputMBps float64
}

// chunkStat is the per-chunk analytic state.
type chunkStat struct {
	p          float64 // per-attempt success probability
	fail       float64 // probability the retry budget is exhausted
	expRetries float64 // E[retries | chunk completes]
	transfer   float64 // media transfer time, seconds
}

// Predict computes the faithful closed-form prediction.
func Predict(in Input) (Prediction, error) { return PredictMutant(in, MutNone) }

// PredictMutant computes the prediction under a seeded historical bug.
// Mutations other than MutNone exist for the differential harness's own
// mutation tests; they must never be used for real predictions.
func PredictMutant(in Input, mu Mutation) (Prediction, error) {
	m := in.Model
	if err := m.Validate(); err != nil {
		return Prediction{}, err
	}
	if in.BlockSize <= 0 {
		return Prediction{}, fmt.Errorf("oracle: block size must be positive, got %d", in.BlockSize)
	}
	if in.Offset < 0 || in.Offset+in.BlockSize > m.CapacityBytes {
		return Prediction{}, fmt.Errorf("oracle: access [%d, %d) outside capacity %d",
			in.Offset, in.Offset+in.BlockSize, m.CapacityBytes)
	}

	threshold := m.ReadFaultFrac
	retryCost := m.RetryRead.Seconds()
	overhead := m.ReadOverhead.Seconds()
	rotLat := (m.RevolutionPeriod() / 2).Seconds()
	if in.Op == hdd.OpWrite {
		threshold = m.WriteFaultFrac
		retryCost = m.RetryWrite.Seconds()
		overhead = m.WriteOverhead.Seconds()
		rotLat = (m.RevolutionPeriod() / 8).Seconds()
	}
	sigma := m.BaseJitterFrac

	chunks := chunkPlan(m, in, mu, threshold, sigma)

	// Aggregate the independent chunk processes into op-level statistics.
	// prefixOK[k] is the probability chunks 0..k-1 all completed, i.e.
	// the probability the op is still alive when chunk k starts.
	opSuccess := 1.0
	succTransfer := 0.0 // Σ transfer, seconds
	succRetryTime := 0.0
	succRetries := 0.0
	failTimeWeighted := 0.0 // Σ_k P(fail at k)·E[time | fail at k]
	failRetriesWeighted := 0.0
	prefixOK := 1.0
	prefixTransfer := 0.0
	prefixRetryTime := 0.0
	prefixRetries := 0.0
	fullTransfer := 0.0
	for _, c := range chunks {
		fullTransfer += c.transfer
	}
	for _, c := range chunks {
		failAt := prefixOK * c.fail
		failTransfer := prefixTransfer
		if mu == MutFullBaseOnFailure {
			failTransfer = fullTransfer
		}
		failTimeWeighted += failAt * (failTransfer + prefixRetryTime + float64(m.MaxRetries)*retryCost)
		failRetriesWeighted += failAt * (prefixRetries + float64(m.MaxRetries))

		opSuccess *= 1 - c.fail
		succTransfer += c.transfer
		succRetryTime += c.expRetries * retryCost
		succRetries += c.expRetries

		prefixOK *= 1 - c.fail
		prefixTransfer += c.transfer
		prefixRetryTime += c.expRetries * retryCost
		prefixRetries += c.expRetries
	}
	pFail := 1 - opSuccess

	// Steady-state sequential workload: the drive loses sequentiality
	// whenever an op fails, so the fraction of ops paying a short reseek
	// plus rotational latency equals the op failure probability.
	seekExtra := m.SeekTime(in.BlockSize).Seconds() + rotLat
	fixed := overhead + pFail*seekExtra

	okLat := fixed + succTransfer + succRetryTime
	failLat := fixed
	if pFail > 0 {
		failLat += failTimeWeighted / pFail
	}
	meanLat := opSuccess*okLat + pFail*failLat

	pred := Prediction{
		PerAttempt:      chunks[0].p,
		ChunkFail:       chunks[0].fail,
		OpSuccess:       opSuccess,
		ExpRetries:      opSuccess*succRetries + failRetriesWeighted,
		MeanOKLatency:   secondsToDuration(okLat),
		MeanFailLatency: secondsToDuration(failLat),
		MeanLatency:     secondsToDuration(meanLat),
	}
	if meanLat > 0 {
		pred.ThroughputMBps = float64(in.BlockSize) * opSuccess / meanLat / 1e6
	}
	return pred, nil
}

// chunkPlan splits the request into the simulator's service chunks and
// computes each chunk's analytic attempt statistics.
func chunkPlan(m hdd.Model, in Input, mu Mutation, threshold, sigma float64) []chunkStat {
	if mu == MutWholeRequestWindow {
		// The historical predictor treated the whole request as a single
		// hold window at the outer-diameter rate.
		hold := m.TransferTime(in.BlockSize) + m.WedgeWindow
		w := in.Vib.Freq.AngularVelocity() * hold.Seconds()
		p := attemptSuccess(m, in.Vib.Amplitude, sigma, threshold, w)
		c := chunkStat{p: p, transfer: m.TransferTimeAt(in.Offset, in.BlockSize).Seconds()}
		c.fail, c.expRetries = retryStats(p, m.MaxRetries)
		return []chunkStat{c}
	}
	var chunks []chunkStat
	for done := int64(0); done < in.BlockSize; done += hdd.ChunkBytes {
		n := in.BlockSize - done
		if n > hdd.ChunkBytes {
			n = hdd.ChunkBytes
		}
		transfer := m.TransferTimeAt(in.Offset+done, n)
		holdTransfer := transfer
		if mu == MutFlatHoldWindow {
			holdTransfer = m.TransferTime(n)
		}
		w := in.Vib.Freq.AngularVelocity() * (holdTransfer + m.WedgeWindow).Seconds()
		p := attemptSuccess(m, in.Vib.Amplitude, sigma, threshold, w)
		c := chunkStat{p: p, transfer: transfer.Seconds()}
		c.fail, c.expRetries = retryStats(p, m.MaxRetries)
		chunks = append(chunks, c)
	}
	return chunks
}

// attemptSuccess is the closed-form per-attempt success probability: the
// probability that A·max|sin| over a window of w radians at uniform random
// phase, plus half-normal jitter of scale sigma, stays below the fault
// threshold. The phase expectation is evaluated by deterministic midpoint
// quadrature over one period of the window-peak function.
func attemptSuccess(m hdd.Model, amplitude, sigma, threshold, w float64) float64 {
	if amplitude >= m.ServoLockFrac {
		// Position feedback lost: no attempt can succeed.
		return 0
	}
	if amplitude <= 0 {
		return halfNormalCDF(threshold, sigma)
	}
	if w >= math.Pi {
		// The window always covers a crest: the peak factor is exactly 1.
		return halfNormalCDF(threshold-amplitude, sigma)
	}
	// max|sin| over [φ, φ+w] has period π in φ, so a uniform phase in
	// [0, 2π) reduces to uniform in [0, π).
	const steps = 2048
	sum := 0.0
	for i := 0; i < steps; i++ {
		phi := (float64(i) + 0.5) * math.Pi / steps
		sum += halfNormalCDF(threshold-amplitude*hdd.MaxAbsSinOver(phi, w), sigma)
	}
	return sum / steps
}

// halfNormalCDF is P(|N(0, sigma²)| < x).
func halfNormalCDF(x, sigma float64) float64 {
	if x <= 0 {
		return 0
	}
	if sigma <= 0 {
		return 1
	}
	return math.Erf(x / (sigma * math.Sqrt2))
}

// retryStats evaluates the truncated geometric retry process of one chunk:
// up to maxRetries retries after the first attempt, so the chunk fails
// with probability q^(maxRetries+1), and conditioned on completing, the
// attempt on which it succeeds is geometric truncated at the budget.
func retryStats(p float64, maxRetries int) (fail, expRetries float64) {
	if p <= 0 {
		return 1, 0
	}
	if p >= 1 {
		return 0, 0
	}
	q := 1 - p
	fail = math.Pow(q, float64(maxRetries+1))
	success := 1 - fail
	if success <= 0 {
		return 1, 0
	}
	// E[k | success] with P(k) = p·q^k, k = 0..maxRetries. The budget is
	// small (≤ a few dozen), so the exact finite sum beats the closed
	// form's catastrophic cancellation near p → 0.
	sum := 0.0
	qk := 1.0
	for k := 0; k <= maxRetries; k++ {
		sum += float64(k) * p * qk
		qk *= q
	}
	return fail, sum / success
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// errNoCells guards Differ.Run against an empty grid.
var errNoCells = errors.New("oracle: differential run needs at least one cell")
