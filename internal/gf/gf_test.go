package gf

import "testing"

// The extraction from cluster/erasure.go must preserve the exact tables:
// a few spot values of the 0x11d exp/log tables, independently derivable.
func TestTableSpotValues(t *testing.T) {
	cases := []struct {
		n    int
		want byte
	}{
		{0, 1}, {1, 2}, {2, 4}, {7, 128}, {8, 0x1d}, {254, 142},
	}
	for _, c := range cases {
		if got := Exp(c.n); got != c.want {
			t.Errorf("Exp(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
	if logTable[2] != 1 || logTable[1] != 0 {
		t.Errorf("log anchor values wrong: log(1)=%d log(2)=%d", logTable[1], logTable[2])
	}
}

func TestFieldAxioms(t *testing.T) {
	// Every nonzero element must invert, and Mul must agree with the
	// schoolbook carry-less product reduced by the primitive polynomial.
	slowMul := func(a, b byte) byte {
		var p int
		x, y := int(a), int(b)
		for y > 0 {
			if y&1 != 0 {
				p ^= x
			}
			x <<= 1
			if x&0x100 != 0 {
				x ^= Poly
			}
			y >>= 1
		}
		return byte(p)
	}
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("Inv(%d) = %d is not an inverse", a, inv)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1, %d) != Inv(%d)", a, a)
		}
	}
	for a := 0; a < 256; a += 7 {
		for b := 0; b < 256; b += 5 {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPolyHelpers(t *testing.T) {
	// (x + 1)(x + 2) = x² + 3x + 2 over GF(256).
	prod := PolyMul([]byte{1, 1}, []byte{1, 2})
	want := []byte{1, 3, 2}
	if len(prod) != len(want) {
		t.Fatalf("PolyMul length %d, want %d", len(prod), len(want))
	}
	for i := range want {
		if prod[i] != want[i] {
			t.Fatalf("PolyMul = %v, want %v", prod, want)
		}
	}
	// Evaluate x² + 3x + 2 at x = 2: 4 ⊕ 6 ⊕ 2 = 0 (2 is a root).
	if got := PolyEval(prod, 2); got != 0 {
		t.Errorf("PolyEval at root = %d, want 0", got)
	}
	if got := PolyEval(prod, 1); got != 0 {
		t.Errorf("PolyEval at root 1 = %d, want 0", got)
	}
}

func TestZeroArgumentPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Inv(0)":    func() { Inv(0) },
		"Div(1, 0)": func() { Div(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
