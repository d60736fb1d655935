// Package valid checks the fields of a run spec. The campaign specs use
// every value as given — zero is a value, not "unset" — so a value the run
// cannot use is rejected before the run starts, never replaced.
package valid

import (
	"fmt"
	"math"
	"time"
)

// Number is an integer or float field type, including the units and
// time.Duration types built on them.
type Number interface {
	~int | ~int64 | ~float64
}

// AtLeast rejects v below min, NaN and +Inf.
func AtLeast[T Number](name string, v, min T) error {
	if !(v >= min) || math.IsInf(float64(v), 1) {
		return fmt.Errorf("%s %v must be finite and ≥ %v", name, v, min)
	}
	return nil
}

// Positive rejects v ≤ 0, NaN and +Inf.
func Positive[T Number](name string, v T) error {
	if !(v > 0) || math.IsInf(float64(v), 1) {
		return fmt.Errorf("%s %v must be finite and positive", name, v)
	}
	return nil
}

// In rejects v outside [lo, hi] and NaN.
func In[T Number](name string, v, lo, hi T) error {
	if !(v >= lo && v <= hi) {
		return fmt.Errorf("%s %v must be in [%v, %v]", name, v, lo, hi)
	}
	return nil
}

// Seconds converts s seconds to a time.Duration, rejecting NaN, ±Inf and
// any value whose nanoseconds overflow a Duration (beyond ±292 years).
func Seconds(name string, s float64) (time.Duration, error) {
	if ns := s * float64(time.Second); math.Abs(ns) < math.MaxInt64 {
		return time.Duration(ns), nil
	}
	return 0, fmt.Errorf("%s %v: not a duration in seconds", name, s)
}

// First returns the first non-nil error of a spec's field checks, naming
// the field as spec.Field.
func First(spec string, errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s.%w", spec, err)
		}
	}
	return nil
}
