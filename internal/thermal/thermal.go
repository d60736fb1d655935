// Package thermal models drive temperature inside a submerged enclosure:
// the surrounding water is the heat sink the paper's introduction credits
// for underwater data centers' cooling advantage, and the defenses of §5
// (linings, dampers, thicker walls) insulate against it. The model turns a
// defense's thermal penalty into concrete consequences — throttling and
// thermal shutdown — so defense evaluation can weigh acoustic protection
// against availability lost to heat, the exact trade-off the paper warns
// about (in-air defenses "may cause overheating").
package thermal

import (
	"fmt"

	"deepnote/internal/water"
)

// Limits are typical 3.5" drive thermal specifications.
const (
	// ThrottleAtC is where firmware begins throttling throughput.
	ThrottleAtC = 55.0
	// ShutdownAtC is the drive's thermal shutdown trip point.
	ShutdownAtC = 65.0
)

// State classifies a drive temperature.
type State int

// Thermal states.
const (
	OK State = iota
	Throttled
	Shutdown
)

// String names the state.
func (s State) String() string {
	switch s {
	case OK:
		return "ok"
	case Throttled:
		return "throttled"
	case Shutdown:
		return "shutdown"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Model computes steady-state drive temperature in an enclosure.
type Model struct {
	// Water is the external heat sink.
	Water water.Medium
	// IdleDeltaC is the drive's self-heating above ambient at idle.
	IdleDeltaC float64
	// LoadDeltaCPerMBps is additional self-heating per MB/s of sustained
	// throughput (seek activity dominates drive power).
	LoadDeltaCPerMBps float64
	// EnclosureDeltaC is the container's own insulation: how much warmer
	// the internal nitrogen sits above the water.
	EnclosureDeltaC float64
	// DefensePenaltyC accumulates the thermal penalties of installed
	// acoustic defenses.
	DefensePenaltyC float64
}

// Default returns the model for the paper's baseline enclosure in the
// given water.
func Default(w water.Medium) Model {
	return Model{
		Water:             w,
		IdleDeltaC:        8,
		LoadDeltaCPerMBps: 0.12,
		EnclosureDeltaC:   6,
	}
}

// WithDefensePenalty returns a copy with an added defense thermal cost.
func (m Model) WithDefensePenalty(deltaC float64) Model {
	m.DefensePenaltyC += deltaC
	return m
}

// DriveTempC returns the steady-state drive temperature at the given
// sustained throughput.
func (m Model) DriveTempC(loadMBps float64) float64 {
	if loadMBps < 0 {
		loadMBps = 0
	}
	return m.Water.TempC + m.EnclosureDeltaC + m.DefensePenaltyC +
		m.IdleDeltaC + m.LoadDeltaCPerMBps*loadMBps
}

// StateAt classifies the drive's thermal state at the given load.
func (m Model) StateAt(loadMBps float64) State {
	t := m.DriveTempC(loadMBps)
	switch {
	case t >= ShutdownAtC:
		return Shutdown
	case t >= ThrottleAtC:
		return Throttled
	default:
		return OK
	}
}

// ThrottleFactor returns the throughput multiplier firmware applies at the
// given load: 1 below the throttle point, ramping linearly to 0 at
// shutdown.
func (m Model) ThrottleFactor(loadMBps float64) float64 {
	t := m.DriveTempC(loadMBps)
	switch {
	case t < ThrottleAtC:
		return 1
	case t >= ShutdownAtC:
		return 0
	default:
		return 1 - (t-ThrottleAtC)/(ShutdownAtC-ThrottleAtC)
	}
}
