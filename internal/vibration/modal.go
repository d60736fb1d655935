// Package vibration provides the modal-resonator primitives used to model
// every mechanically resonant element in the Deep Note chain: container
// walls, the storage tower, and the drive's head-stack assembly. The paper's
// causal story (§2.1) is that acoustic waves matching a structure's resonant
// frequencies amplify mechanical vibration; a bank of second-order resonators
// is the standard minimal model of that behaviour.
package vibration

import (
	"fmt"
	"math"

	"deepnote/internal/units"
)

// Mode is a single second-order resonance: natural frequency F0, quality
// factor Q, and a dimensionless gain applied at resonance. Its magnitude
// response follows the classic forced-oscillator transmissibility:
//
//	|H(f)| = Gain / sqrt((1 − r²)² + (r/Q)²),  r = f/F0
//
// normalized so that |H(F0)| = Gain·Q at resonance... (the bare form gives
// Gain·Q at r=1; callers choose Gain with that in mind).
type Mode struct {
	// F0 is the natural (resonant) frequency.
	F0 units.Frequency
	// Q is the quality factor; higher Q means a sharper, taller peak.
	Q float64
	// Gain is the low-frequency (static) gain of the mode.
	Gain float64
}

// Validate reports whether the mode parameters are physical.
func (m Mode) Validate() error {
	if m.F0 <= 0 {
		return fmt.Errorf("vibration: mode F0 must be positive, got %v", m.F0)
	}
	if m.Q <= 0 {
		return fmt.Errorf("vibration: mode Q must be positive, got %v", m.Q)
	}
	if m.Gain < 0 {
		return fmt.Errorf("vibration: mode gain must be non-negative, got %v", m.Gain)
	}
	return nil
}

// Response returns the magnitude response of the mode at frequency f.
func (m Mode) Response(f units.Frequency) float64 {
	if m.F0 <= 0 || m.Q <= 0 {
		return 0
	}
	r := float64(f) / float64(m.F0)
	denom := math.Sqrt((1-r*r)*(1-r*r) + (r/m.Q)*(r/m.Q))
	if denom == 0 {
		return m.Gain * m.Q
	}
	return m.Gain / denom
}

// String renders the mode.
func (m Mode) String() string {
	return fmt.Sprintf("mode(f0=%v Q=%.3g gain=%.3g)", m.F0, m.Q, m.Gain)
}

// Stack is a set of modes acting in parallel on the same excitation; the
// magnitude responses add in power (incoherent sum), which avoids fragile
// phase-cancellation artifacts while preserving peak structure.
type Stack []Mode

// Validate validates every mode in the stack.
func (s Stack) Validate() error {
	for i, m := range s {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("vibration: mode %d: %w", i, err)
		}
	}
	return nil
}

// Response returns the incoherent (power-summed) magnitude response of the
// stack at frequency f. An empty stack passes the excitation through
// unchanged (response 1), so optional structural elements compose cleanly.
func (s Stack) Response(f units.Frequency) float64 {
	if len(s) == 0 {
		return 1
	}
	var sum float64
	for _, m := range s {
		r := m.Response(f)
		sum += r * r
	}
	return math.Sqrt(sum)
}
