package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// refNominal defines the reference second: host times are reported as if
// the calibration kernel took refNominal seconds.
//
// The speed of a vCPU on a shared machine drifts by ±25% within seconds
// and by ±15% between runs minutes apart. So the kernel runs before and
// after each timed rep, and the rep's host times are reported in reference
// seconds: the measured seconds times refNominal over the kernels' time. A
// slower core slows both, and the drift mostly cancels. The measured
// seconds are reported beside them.
const refNominal = 0.1

type calNode struct {
	next *calNode
	v    [6]float64
}

// calSink keeps the kernel's result, so the compiler cannot drop its work.
var calSink float64

// calibrate times a fixed mix of the operations the workloads spend their
// time on: map inserts, small-object allocation and pointer chasing,
// sorting, and a floating-point recurrence.
func calibrate() float64 {
	runtime.GC()
	start := time.Now()
	const n = 200_000
	m := make(map[int]int)
	for i := 0; i < n; i++ {
		m[i*7919%1_000_003] = i
	}
	var head *calNode
	for i := 0; i < n; i++ {
		head = &calNode{next: head, v: [6]float64{float64(i)}}
	}
	sum := 0.0
	for p := head; p != nil; p = p.next {
		sum += p.v[0] + float64(m[int(p.v[0])*7919%1_000_003])
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i) * 1.37)
	}
	sort.Float64s(xs)
	s1, s2 := 0.0, 0.0
	c := 2 * math.Cos(0.3)
	for i := 0; i < 30*n; i++ {
		s1, s2 = xs[i%n]+c*s1-s2, s1
	}
	calSink = sum + s1
	return time.Since(start).Seconds()
}
