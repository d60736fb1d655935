package netstore

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// stackRun is what one clock → drive → disk → server stack reports after
// serving a request stream.
type stackRun struct {
	disk                       blockdev.Stats
	requests, timeouts, errors int64
	nanos                      int64
	getHash                    uint64 // FNV-1a over every successful GET's bytes
	gets                       int    // successful GETs
}

// runStack builds one stack from seed and serves a fixed GET/PUT stream
// through it: quiet, under a retry-provoking tone, servo-locked, then
// quiet again. The stream mixes the store's page paths: pattern payloads
// (shared pages), distinct payloads, zero payloads and Handle's fixed
// pattern.
func runStack(seed int64) stackRun {
	const objects, size = 32, 16 << 10
	clock := simclock.NewVirtual()
	model := hdd.Barracuda500()
	drive, err := hdd.NewDrive(model, clock, seed)
	if err != nil {
		panic(err)
	}
	disk := blockdev.NewDisk(drive)
	s := NewServer(disk, clock, Config{Objects: objects, ObjectSize: size, Seed: seed, Timeout: 500 * time.Millisecond})

	phases := []hdd.Vibration{
		hdd.Quiet(),
		{Freq: 650 * units.Hz, Amplitude: model.ServoLockFrac * 0.8},
		{Freq: 650 * units.Hz, Amplitude: model.ServoLockFrac * 1.1},
		hdd.Quiet(),
	}
	rng := rand.New(rand.NewSource(seed))
	pattern, zeros := make([]byte, size), make([]byte, size)
	for i := range pattern {
		pattern[i] = byte(i * 7)
	}
	distinct := make([]byte, size)
	h := fnv.New64a()
	out := stackRun{}
	for _, vib := range phases {
		drive.SetVibration(vib)
		for i := 0; i < 200; i++ {
			obj := rng.Intn(objects)
			switch rng.Intn(5) {
			case 0:
				s.HandleObjectShared(Put, obj, pattern)
			case 1:
				for j := range distinct {
					distinct[j] = byte(rng.Intn(256))
				}
				s.HandleObjectShared(Put, obj, distinct)
			case 2:
				s.HandleObjectShared(Put, obj, zeros)
			case 3:
				s.Handle(Put, obj)
			default:
				if data, r := s.HandleObjectShared(Get, obj, nil); r.Err == nil {
					h.Write(data)
					out.gets++
				}
			}
		}
	}
	out.disk = disk.Stats()
	out.requests, out.timeouts, out.errors = s.Requests, s.Timeouts, s.Errors
	out.nanos = clock.Nanos()
	out.getHash = h.Sum64()
	return out
}

// TestStacksShareNothing runs two stacks built from one seed through the
// same request stream on two goroutines at once. A stack's clock, drive,
// disk and server have one owner and take no locks, so the stacks must
// share no mutable state: under -race any package-level state one stack
// writes and the other reaches is reported, and without -race a shared
// write shows as diverging results.
func TestStacksShareNothing(t *testing.T) {
	const seed = 17
	var runs [2]stackRun
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i] = runStack(seed)
		}()
	}
	wg.Wait()
	a, b := runs[0], runs[1]
	if a != b {
		t.Fatalf("stacks built from one seed diverged:\n%+v\n%+v", a, b)
	}
	// The stream must reach every path it is meant to: served GETs,
	// failed requests, and writes that stored bytes.
	if a.gets == 0 || a.timeouts+a.errors == 0 || a.disk.WriteOps == 0 || a.disk.ReadErrs+a.disk.WriteErrs == 0 {
		t.Fatalf("stream too tame to show sharing: %+v", a)
	}
}
