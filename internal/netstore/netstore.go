// Package netstore models a small networked object store running on the
// victim drive: GET and PUT requests served over a network with realistic
// round-trip jitter and a server-side timeout. It exists to realize the
// paper's §3 reconnaissance premise — an attacker who cannot see the
// drive can still *remotely* observe request latencies of "online
// applications that use the target data center" and use them to find the
// vulnerable frequencies.
package netstore

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// Errors reported to clients.
var (
	// ErrTimeout means the server gave up on the backing store.
	ErrTimeout = errors.New("netstore: request timed out")
	// ErrBadRequest reports malformed requests.
	ErrBadRequest = errors.New("netstore: bad request")
	// ErrUnavailable is the circuit breaker's fast-fail: the server sheds
	// the request without touching the backing store.
	ErrUnavailable = errors.New("netstore: service unavailable (circuit open)")
	// errInternal reports a storage failure that was not a timeout. It
	// is one shared value because failing requests are the common case
	// under attack, and the text never varies.
	errInternal = errors.New("netstore: internal storage error")
)

// Config tunes the service.
type Config struct {
	// NetRTT is the mean network round-trip added to every request
	// (default 2 ms).
	NetRTT time.Duration
	// RTTJitter is the uniform ± jitter on the RTT (default 0.5 ms).
	RTTJitter time.Duration
	// Timeout bounds a request's storage time before the server answers
	// 503 (default 5 s, a typical load-balancer budget).
	Timeout time.Duration
	// ObjectSize is the fixed object size in bytes (default 64 KiB).
	ObjectSize int
	// Objects is the number of addressable objects (default 1024).
	Objects int
	// Seed drives the jitter.
	Seed int64
	// Resilience enables the hardened request path; the zero value keeps
	// the bare behavior (including its exact RNG draw sequence).
	Resilience ResilienceConfig
}

// ResilienceConfig is the hardened request path: storage retries within the
// request's timeout budget, hedged GETs, and a circuit breaker that sheds
// load while the backing store is unresponsive. All waiting is charged to
// the virtual clock and no extra RNG draws happen, so enabling resilience
// never perturbs the jitter stream.
type ResilienceConfig struct {
	// Enabled turns the hardened path on.
	Enabled bool
	// MaxRetries bounds storage re-attempts per request (default 2).
	MaxRetries int
	// RetryBackoff is the sleep before the first retry, doubling each
	// retry (default 50 ms).
	RetryBackoff time.Duration
	// HedgeAfter hedges a GET whose first storage attempt failed or ran
	// longer than this with one immediate second attempt (default 100 ms).
	HedgeAfter time.Duration
	// BreakerThreshold opens the circuit after this many consecutive
	// failed requests (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the circuit stays open before a
	// half-open probe is allowed through (default 10 s).
	BreakerCooldown time.Duration
}

func (r ResilienceConfig) withDefaults() ResilienceConfig {
	if !r.Enabled {
		return r
	}
	if r.MaxRetries <= 0 {
		r.MaxRetries = 2
	}
	if r.RetryBackoff <= 0 {
		r.RetryBackoff = 50 * time.Millisecond
	}
	if r.HedgeAfter <= 0 {
		r.HedgeAfter = 100 * time.Millisecond
	}
	if r.BreakerThreshold <= 0 {
		r.BreakerThreshold = 5
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = 10 * time.Second
	}
	return r
}

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (b breakerState) String() string {
	switch b {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func (c Config) withDefaults() Config {
	if c.NetRTT <= 0 {
		c.NetRTT = 2 * time.Millisecond
	}
	if c.RTTJitter <= 0 {
		c.RTTJitter = 500 * time.Microsecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 5 * time.Second
	}
	if c.ObjectSize <= 0 {
		c.ObjectSize = 64 << 10
	}
	if c.Objects <= 0 {
		c.Objects = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	c.Resilience = c.Resilience.withDefaults()
	return c
}

// Op is the request type.
type Op int

// Request operations.
const (
	Get Op = iota
	Put
)

// String names the op.
func (o Op) String() string {
	if o == Put {
		return "PUT"
	}
	return "GET"
}

// Response is what a remote client observes: latency and status only.
type Response struct {
	// Latency is the client-observed round-trip time.
	Latency time.Duration
	// Err is nil on success; a remote client sees only the class of
	// failure (timeout vs. error), never drive internals.
	Err error
}

// Server is the storage service.
type Server struct {
	dev   blockdev.Device
	clock *simclock.Virtual
	cfg   Config
	rng   *rand.Rand
	// scratch is the reused request buffer; HandleObjectShared serves
	// GETs out of it so the hot path never allocates.
	scratch []byte

	// Circuit breaker state (resilience only).
	breaker  breakerState
	openedAt time.Time
	failStrk int

	// Stats
	Requests, Timeouts, Errors int64
	// Resilience stats: storage re-attempts, hedged GETs, requests saved
	// by a retry or hedge, breaker transitions, and shed requests.
	Retries, Hedges, Recovered  int64
	BreakerOpens, BreakerCloses int64
	FastFails                   int64
}

// NewServer starts a service over a device.
func NewServer(dev blockdev.Device, clock *simclock.Virtual, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{dev: dev, clock: clock, cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)), scratch: make([]byte, cfg.ObjectSize)}
}

// rtt samples one network round trip.
func (s *Server) rtt() time.Duration {
	j := time.Duration(s.rng.Int63n(int64(2*s.cfg.RTTJitter))) - s.cfg.RTTJitter
	return s.cfg.NetRTT + j
}

// Handle serves one request against the backing store and returns the
// client-observed response. The storage operation is bounded by the
// server's timeout: a drive that stops responding turns into 503s, which
// is exactly the externally visible signal the attacker keys on. With
// Config.Resilience enabled, failed attempts are retried (and GETs hedged)
// inside the timeout budget, and a circuit breaker sheds requests while
// the store is down.
//
// Handle is the payload-less form: PUTs store a fixed per-object pattern
// and GETs discard the bytes read. Callers that care about object
// contents (e.g. an erasure-coded store carrying real shards) use
// HandleObjectShared.
func (s *Server) Handle(op Op, objectID int) Response {
	_, resp := s.HandleObjectShared(op, objectID, nil)
	return resp
}

// HandleObjectShared is Handle with an explicit payload. For PUTs, data is
// stored (zero-padded to the object size; nil keeps Handle's fixed
// pattern); a payload of exactly the object size is written straight from
// the caller's slice with no staging copy. A successful GET returns a slice
// aliasing the server's internal request buffer, valid only until the next
// request on this server. Timing, retry behavior, and the jitter RNG draw
// sequence are identical to Handle.
func (s *Server) HandleObjectShared(op Op, objectID int, data []byte) ([]byte, Response) {
	s.Requests++
	if objectID < 0 || objectID >= s.cfg.Objects {
		s.Errors++
		return nil, Response{Err: fmt.Errorf("%w: object %d", ErrBadRequest, objectID)}
	}
	if op == Put && len(data) > s.cfg.ObjectSize {
		s.Errors++
		return nil, Response{Err: fmt.Errorf("%w: payload %d exceeds object size %d",
			ErrBadRequest, len(data), s.cfg.ObjectSize)}
	}
	start := s.clock.Now()
	net := s.rtt()
	s.clock.Sleep(net / 2) // request flight

	res := s.cfg.Resilience
	if res.Enabled && s.breaker == breakerOpen {
		if s.clock.Now().Sub(s.openedAt) < res.BreakerCooldown {
			s.FastFails++
			s.clock.Sleep(net / 2)
			return nil, Response{Latency: s.clock.Now().Sub(start), Err: ErrUnavailable}
		}
		// Cooldown over: let this request through as the probe.
		s.breaker = breakerHalfOpen
	}

	buf := s.scratch
	off := int64(objectID) * int64(s.cfg.ObjectSize)
	if op == Put {
		switch {
		case data == nil:
			for i := range buf {
				buf[i] = byte(objectID + i)
			}
		case len(data) == len(buf):
			// Full-size payload: write straight from the caller's slice.
			buf = data
		default:
			n := copy(buf, data)
			for i := n; i < len(buf); i++ {
				buf[i] = 0
			}
		}
	}
	attempt := func() error {
		var err error
		if op == Put {
			_, err = s.dev.WriteAt(buf, off)
		} else {
			_, err = s.dev.ReadAt(buf, off)
		}
		return err
	}
	storageElapsed := func() time.Duration {
		return s.clock.Now().Sub(start) - net/2
	}

	err := attempt()
	if res.Enabled {
		firstFailed := err != nil
		// Hedge: a GET whose first attempt failed or ran long gets one
		// immediate second chance.
		if op == Get && (err != nil || storageElapsed() >= res.HedgeAfter) &&
			storageElapsed() < s.cfg.Timeout {
			s.Hedges++
			err = attempt()
		}
		// Retries with doubling backoff, inside the timeout budget.
		backoff := res.RetryBackoff
		for r := 0; err != nil && r < res.MaxRetries; r++ {
			if storageElapsed()+backoff >= s.cfg.Timeout {
				break
			}
			s.clock.Sleep(backoff)
			backoff *= 2
			s.Retries++
			err = attempt()
		}
		if firstFailed && err == nil {
			s.Recovered++
		}
	}
	storageTime := storageElapsed()

	s.clock.Sleep(net / 2) // response flight
	resp := Response{Latency: s.clock.Now().Sub(start)}
	switch {
	case err != nil && storageTime >= s.cfg.Timeout:
		s.Timeouts++
		resp.Err = ErrTimeout
	case err != nil:
		s.Errors++
		resp.Err = errInternal
	case storageTime >= s.cfg.Timeout:
		// Completed, but past the budget: the client already gave up.
		s.Timeouts++
		resp.Err = ErrTimeout
	}
	if res.Enabled {
		s.observeOutcome(resp.Err == nil)
	}
	if op == Get && resp.Err == nil {
		return buf, resp
	}
	return nil, resp
}

// observeOutcome advances the circuit breaker after a served request.
func (s *Server) observeOutcome(ok bool) {
	res := s.cfg.Resilience
	if ok {
		if s.breaker != breakerClosed {
			s.breaker = breakerClosed
			s.BreakerCloses++
		}
		s.failStrk = 0
		return
	}
	s.failStrk++
	switch s.breaker {
	case breakerHalfOpen:
		// The probe failed: back to open for another cooldown.
		s.breaker = breakerOpen
		s.openedAt = s.clock.Now()
	case breakerClosed:
		if s.failStrk >= res.BreakerThreshold {
			s.breaker = breakerOpen
			s.openedAt = s.clock.Now()
			s.BreakerOpens++
		}
	}
}

// BreakerState names the circuit breaker position ("closed", "open",
// "half-open").
func (s *Server) BreakerState() string { return s.breaker.String() }

// Preload writes every object once so GETs hit allocated storage.
func (s *Server) Preload() error {
	for i := 0; i < s.cfg.Objects; i++ {
		if r := s.Handle(Put, i); r.Err != nil {
			return fmt.Errorf("netstore: preload object %d: %w", i, r.Err)
		}
	}
	return nil
}

// Config returns the effective configuration.
func (s *Server) Config() Config { return s.cfg }

// PublishMetrics pushes the server's counters into a registry under the
// "netstore." prefix (no-op on a nil registry).
func (s *Server) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Add("netstore.requests", s.Requests)
	reg.Add("netstore.timeouts", s.Timeouts)
	reg.Add("netstore.errors", s.Errors)
	reg.Add("netstore.retries", s.Retries)
	reg.Add("netstore.hedges", s.Hedges)
	reg.Add("netstore.recovered", s.Recovered)
	reg.Add("netstore.fast_fails", s.FastFails)
	reg.Add("netstore.breaker_opens", s.BreakerOpens)
	reg.Add("netstore.breaker_closes", s.BreakerCloses)
}
