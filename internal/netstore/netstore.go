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
	// errInternal reports a storage failure that was not a timeout. It
	// is one shared value because failing requests are the common case
	// under attack, and the text never varies.
	errInternal = errors.New("netstore: internal storage error")
)

// The network round trip added to every request: a 2 ms mean with a
// uniform ±0.5 ms jitter.
const (
	netRTT    = 2 * time.Millisecond
	rttJitter = 500 * time.Microsecond
)

// Config tunes the service.
type Config struct {
	// Timeout bounds a request's storage time before the server answers
	// 503 (default 5 s, a typical load-balancer budget).
	Timeout time.Duration
	// ObjectSize is the fixed object size in bytes (default 64 KiB).
	ObjectSize int
	// Objects is the number of addressable objects (default 1024).
	Objects int
	// Seed drives the jitter.
	Seed int64
}

func (c Config) withDefaults() Config {
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
	return c
}

// Op is the request type.
type Op int

// Request operations.
const (
	Get Op = iota
	Put
)

// Response is what a remote client observes: latency and status only.
type Response struct {
	// Latency is the client-observed round-trip time.
	Latency time.Duration
	// Err is nil on success; a remote client sees only the class of
	// failure (timeout vs. error), never drive internals.
	Err error
}

// Server is the storage service. Server is not safe for concurrent use;
// one owner, like hdd.Drive: the goroutine that owns the server also owns
// its clock, drive and block device.
type Server struct {
	dev   blockdev.Device
	clock *simclock.Virtual
	cfg   Config
	rng   *rand.Rand
	// scratch is the reused request buffer; HandleObjectShared serves
	// GETs out of it so the hot path never allocates.
	scratch []byte

	// Stats
	Requests, Timeouts, Errors int64
}

// NewServer starts a service over a device.
func NewServer(dev blockdev.Device, clock *simclock.Virtual, cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{dev: dev, clock: clock, cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)), scratch: make([]byte, cfg.ObjectSize)}
}

// rtt samples one network round trip.
func (s *Server) rtt() time.Duration {
	j := time.Duration(s.rng.Int63n(int64(2*rttJitter))) - rttJitter
	return netRTT + j
}

// Handle serves one request against the backing store and returns the
// client-observed response. The storage operation is bounded by the
// server's timeout: a drive that stops responding turns into 503s, which
// is exactly the externally visible signal the attacker keys on.
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
// request on this server. Timing and the jitter RNG draw sequence are
// identical to Handle.
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
	start := s.clock.Nanos()
	net := s.rtt()
	s.clock.Sleep(net / 2) // request flight

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
	var err error
	if op == Put {
		_, err = s.dev.WriteAt(buf, off)
	} else {
		_, err = s.dev.ReadAt(buf, off)
	}
	storageTime := time.Duration(s.clock.Nanos()-start) - net/2

	s.clock.Sleep(net / 2) // response flight
	resp := Response{Latency: time.Duration(s.clock.Nanos() - start)}
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
	if op == Get && resp.Err == nil {
		return buf, resp
	}
	return nil, resp
}

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
}
