package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/cluster"
	"deepnote/internal/core"
	"deepnote/internal/detect"
	"deepnote/internal/dsp"
	"deepnote/internal/exfil"
	"deepnote/internal/hdd"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/metrics"
	"deepnote/internal/sched"
	"deepnote/internal/sig"
	"deepnote/internal/simclock"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
)

// probeTarget is how long the final timed batch of a probe runs.
const probeTarget = 100 * time.Millisecond

// timeOp runs op in doubling batches until one batch lasts probeTarget and
// returns that batch's nanoseconds and heap allocations per call.
func timeOp(op func()) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if d >= probeTarget || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
}

// probes times each layer's public call in a loop, shaped as the
// workloads call it, and returns the per-layer probe metrics.
func probes(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	// record stores a probe's time, converted from ns by scale, and its
	// allocations, both per unit of work when one call does perCall units.
	// timeName ends in the time unit; the allocation metric replaces it.
	record := func(timeName string, scale, perCall, ns, allocs float64) {
		out[timeName] = ns / scale / perCall
		out[timeName[:strings.LastIndex(timeName, "_")]+"_allocs"] = allocs / perCall
	}
	tone := sig.NewTone(650 * units.Hz)

	// hdd: 128 KiB sequential writes, Scenario 2, 650 Hz at 15 cm, where
	// writes degrade but still complete.
	rig, err := core.NewRig(core.Scenario2, 15*units.Centimeter, seed)
	if err != nil {
		return nil, err
	}
	rig.ApplyTone(tone)
	const block = 128 << 10
	var off int64
	accesses, retries := 0, 0
	ns, allocs := timeOp(func() {
		r := rig.Drive.Access(hdd.OpWrite, off, block)
		accesses++
		retries += r.Retries
		if off += block; off+block > rig.Drive.Capacity() {
			off = 0
		}
	})
	record("hdd.access_ns", 1, 1, ns, allocs)
	out["hdd.retries_per_access"] = ratio(retries, accesses)

	clock := simclock.NewVirtual()
	var now time.Time
	ns, allocs = timeOp(func() { now = clock.Now() })
	_ = now
	record("simclock.now_ns", 1, 1, ns, allocs)

	// blockdev: the retrier writing 4 KiB filesystem blocks under the
	// Table 3 attack (650 Hz at 1 cm), where every write exhausts its
	// retries.
	rig, err = core.NewRig(core.Scenario2, units.Centimeter, seed)
	if err != nil {
		return nil, err
	}
	rig.ApplyTone(tone)
	retrier := blockdev.NewRetrier(rig.Disk, rig.Clock, blockdev.RetryPolicy{})
	page := make([]byte, 4<<10)
	off = 0
	ns, allocs = timeOp(func() {
		// Under this attack the writes fail by design; the retrier's stats
		// count them.
		_, _ = retrier.WriteAt(page, off)
		if off += int64(len(page)); off+int64(len(page)) > retrier.Size() {
			off = 0
		}
	})
	record("blockdev.retrier_write_ns", 1, 1, ns, allocs)
	rs := retrier.Stats()
	out["blockdev.retries_per_op"] = float64(rs.Retries) / float64(rs.Requests)
	out["blockdev.error_frac"] = float64(rs.Exhausted) / float64(rs.Requests)

	if err := probeKVDB(seed, record); err != nil {
		return nil, err
	}

	// cluster: the facility cell's code, 4+2 over 16 KiB objects.
	coder, err := cluster.NewCoder(4, 2)
	if err != nil {
		return nil, err
	}
	object := make([]byte, 16<<10)
	rand.New(rand.NewSource(seed)).Read(object)
	var shards [][]byte
	ns, allocs = timeOp(func() { shards = coder.Encode(object) })
	record("cluster.encode_ns", 1, 1, ns, allocs)
	work := make([][]byte, len(shards))
	var recErr error
	ns, allocs = timeOp(func() {
		copy(work, shards)
		work[0], work[3] = nil, nil
		if err := coder.Reconstruct(work); err != nil {
			recErr = err
		}
	})
	if recErr != nil {
		return nil, recErr
	}
	record("cluster.reconstruct_ns", 1, 1, ns, allocs)

	// sched: one push and one pop at a steady depth of 1024 events.
	var q sched.Queue
	q.Grow(1024)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1024; i++ {
		q.Push(rng.Int63n(1e9), uint64(i))
	}
	ns, allocs = timeOp(func() {
		it, _ := q.Pop()
		q.Push(it.At+int64(sched.Hash64(uint64(seed), it.Seq)%1e6), it.ID)
	})
	record("sched.push_pop_ns", 1, 1, ns, allocs)

	// sonar: locating one key-on of the facility cell's first speaker.
	lay := cluster.LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0, 1, 2)
	arr := sonar.FacilityArray(lay, 6, 3*units.Meter)
	recs := arr.Receive(lay.Speakers[0].Pos, tone, sonarSeed)
	ns, allocs = timeOp(func() { arr.Locate(recs) })
	record("sonar.locate_us", 1e3, 1, ns, allocs)

	if err := probeSignal(seed, record); err != nil {
		return nil, err
	}

	reg := metrics.NewRegistry()
	var v int64
	ns, allocs = timeOp(func() {
		v = (v*6364136223846793005 + 1442695040888963407) & math.MaxInt32
		reg.Observe("bench.probe_ns", v)
	})
	record("metrics.observe_ns", 1, 1, ns, allocs)
	return out, nil
}

// probeKVDB times Put and Get of db_bench-sized records (16 B keys, 100 B
// values) on a quiet Scenario 2 stack.
func probeKVDB(seed int64, record func(string, float64, float64, float64, float64)) error {
	rig, err := core.NewRig(core.Scenario2, units.Centimeter, seed)
	if err != nil {
		return err
	}
	if err := jfs.Mkfs(rig.Disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
		return err
	}
	fs, err := jfs.Mount(rig.Disk, rig.Clock, jfs.Config{})
	if err != nil {
		return err
	}
	db, err := kvdb.Open(fs, rig.Clock, kvdb.Options{Seed: seed})
	if err != nil {
		return err
	}
	const nkeys = 1 << 15
	keys := make([][]byte, nkeys)
	rng := rand.New(rand.NewSource(seed))
	for i := range keys {
		keys[i] = make([]byte, 16)
		binary.BigEndian.PutUint64(keys[i], rng.Uint64())
		binary.BigEndian.PutUint64(keys[i][8:], uint64(i))
	}
	value := make([]byte, 100)
	i := 0
	var opErr error
	ns, allocs := timeOp(func() {
		if err := db.Put(keys[i%nkeys], value); err != nil {
			opErr = err
		}
		i++
	})
	if opErr != nil {
		return opErr
	}
	record("kvdb.put_ns", 1, 1, ns, allocs)
	written := min(i, nkeys)
	ns, allocs = timeOp(func() {
		if _, err := db.Get(keys[rng.Intn(written)]); err != nil {
			opErr = err
		}
	})
	if opErr != nil {
		return opErr
	}
	record("kvdb.get_ns", 1, 1, ns, allocs)
	return nil
}

// probeSignal times the signal_watch layers: the fingerprint bank and
// classifier, the latency detector, the exfil modem and the ambient
// renderer.
func probeSignal(seed int64, record func(string, float64, float64, float64, float64)) error {
	fp, err := detect.NewFingerprinter(detect.FingerprintConfig{})
	if err != nil {
		return err
	}
	synth := detect.NewSynth(fp.SampleRate(), fp.WindowSamples(), detect.DefaultSensorSigma, seed)
	pump := sig.NewAmbient(sig.AmbientPump, seed)
	// Half benign pump ambience, half with the 650 Hz tone over it, in
	// contiguous blocks so the classifier's persistence run confirms.
	windows := make([][]float64, 32)
	for i := range windows {
		vib := hdd.Vibration{}
		if i >= len(windows)/2 {
			vib = hdd.Vibration{Freq: 650 * units.Hz, Amplitude: 0.05}
		}
		windows[i] = append([]float64(nil), synth.Window(vib, pump)...)
	}

	bank, err := dsp.NewBank(fp.SampleRate(), fp.WindowSamples(), fingerprintGrid())
	if err != nil {
		return err
	}
	flat := make([]float64, 0, len(windows)*fp.WindowSamples())
	for _, w := range windows {
		flat = append(flat, w...)
	}
	i := 0
	ns, allocs := timeOp(func() {
		bank.Push(flat[i%len(flat)])
		i++
	})
	record("dsp.bank_push_ns", 1, 1, ns, allocs)

	i = 0
	ns, allocs = timeOp(func() {
		fp.Feed(windows[i%len(windows)])
		i++
	})
	record("detect.feed_us", 1e3, 1, ns, allocs)

	det, err := detect.NewDetector(detect.Config{})
	if err != nil {
		return err
	}
	at := time.Unix(0, 0)
	i = 0
	ns, allocs = timeOp(func() {
		at = at.Add(10 * time.Millisecond)
		// Mostly healthy 2 ms ops with periodic slow and failed ones.
		lat := 2 * time.Millisecond
		if i%8 == 7 {
			lat = 500 * time.Millisecond
		}
		det.Observe(at, lat, i%16 == 15)
		i++
	})
	record("detect.observe_ns", 1, 1, ns, allocs)

	// exfil: one FSK frame at signal_watch's rate across 5 m of water
	// under pump ambience.
	cfg := exfil.ModemConfig{SymbolRate: exfil.Ptr(exfilBaud)}
	mod, err := exfil.NewModulator(cfg, exfil.TxConfig{})
	if err != nil {
		return err
	}
	rx, err := exfil.NewReceiver(cfg)
	if err != nil {
		return err
	}
	md := mod.Modem()
	payload := make([]byte, md.MaxPayload())
	rand.New(rand.NewSource(seed)).Read(payload)
	bits, err := md.EncodeFrame(payload)
	if err != nil {
		return err
	}
	lay := cluster.LineLayout(1, 10*units.Meter)
	tx := lay.Containers[0].Pos
	link := exfil.Link{
		Array: sonar.Array{
			Medium:      lay.EffectiveMedium(),
			Hydrophones: []sonar.Hydrophone{{Name: "rx", Pos: cluster.Vec3{X: tx.X + 5, Y: tx.Y, Z: tx.Z}}},
		},
		TxPos:   tx,
		Ambient: pump,
		Seed:    seed,
	}
	var wave []float64
	ns, allocs = timeOp(func() { wave, _ = link.Render(mod, bits) })
	record("exfil.render_ms", 1e6, 1, ns, allocs)
	ns, allocs = timeOp(func() { rx.Demodulate(wave, 1) })
	record("exfil.demodulate_ms", 1e6, 1, ns, allocs)

	buf := make([]float64, fp.WindowSamples())
	w := 0
	ns, allocs = timeOp(func() {
		pump.RenderInto(w, fp.SampleRate(), buf)
		w++
	})
	record("sig.render_ns", 1, float64(len(buf)), ns, allocs)
	return nil
}

// fingerprintGrid is the classifier's default bank: 10 Hz bins from the
// 30 Hz comb guard to the top of the 300–1400 Hz vulnerable band.
func fingerprintGrid() []units.Frequency {
	var freqs []units.Frequency
	for f := 30 * units.Hz; f <= 1400*units.Hz; f += 10 * units.Hz {
		freqs = append(freqs, f)
	}
	return freqs
}
