package main

import (
	"reflect"
	"testing"
)

func TestParseFloatList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64 // nil: must fail
	}{
		{in: ""},
		{in: "5,,6"},
		{in: "NaN"},
		{in: "Inf"},
		{in: "5,-Inf"},
		{in: "5, 20", want: []float64{5, 20}},
	} {
		got, err := parseFloatList("-distances", tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseFloatList(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFloatList(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
