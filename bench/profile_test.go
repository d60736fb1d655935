package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"deepnote/internal/dsp"
)

// TestProfileChargesBankToDSP profiles about 200 ms of dsp.Bank.Push and
// checks that the reader charges the time to the dsp layer.
func TestProfileChargesBankToDSP(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime runs in C code, where profile samples lose their Go frames")
	}
	bank, err := dsp.NewBank(4096, 512, fingerprintGrid())
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = math.Sin(float64(i) * 0.99)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profile unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		for _, x := range samples {
			bank.Push(x)
		}
	}
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTime
	p.attribute(&lt)
	if lt.total == 0 {
		t.Skip("the profile holds no samples")
	}
	if share := float64(lt.pkg["dsp"]) / float64(lt.total); share < 0.8 {
		t.Errorf("dsp.cpu_share = %.3f over %d samples, want ≥ 0.8 (packages: %v)", share, len(p.samples), lt.pkg)
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted input that is not gzip")
	}
	// A length-delimited field (field 6, wire type 2) claiming 5 bytes
	// with only 1 present.
	if err := eachField([]byte{6<<3 | 2, 5, 'x'}, func(field) error { return nil }); err == nil {
		t.Error("eachField accepted a truncated field")
	}
}
