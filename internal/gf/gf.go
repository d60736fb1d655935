// Package gf implements arithmetic over GF(256), the finite field both
// Reed–Solomon codes in this repository are built on: the cluster store's
// erasure coder (internal/cluster) and the covert-channel modem's
// error-correcting FEC (internal/exfil). The field uses the AES-adjacent
// primitive polynomial x^8+x^4+x^3+x^2+1 (0x11d) with generator α = 2,
// the conventional choice for storage codes; log/antilog tables make a
// multiply two lookups.
//
// The package was extracted verbatim from internal/cluster/erasure.go so
// both consumers share one table; the cluster coder's output is pinned
// byte-identical to the pre-extraction vectors by its regression tests.
package gf

// Poly is the field's primitive polynomial, 0x11d.
const Poly = 0x11d

var (
	expTable [512]byte
	logTable [256]int
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	// Double the table so Mul can skip the mod-255 reduction.
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

// Mul returns the field product a·b.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[logTable[a]+logTable[b]]
}

// Div returns a/b. Division by zero panics, mirroring integer division:
// a zero divisor is a programming error in code built on this field, not
// a runtime condition.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[logTable[a]+255-logTable[b]]
}

// Inv returns the multiplicative inverse of a nonzero element. Inv(0)
// panics for the same reason Div panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return expTable[255-logTable[a]]
}

// Exp returns α^n for n ≥ 0 (α = 2, the field generator).
func Exp(n int) byte { return expTable[n%255] }

// PolyEval evaluates the polynomial with coefficients p — p[0] is the
// highest-degree term — at x, by Horner's rule. An empty polynomial is 0.
func PolyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = Mul(y, x) ^ c
	}
	return y
}

// PolyMul multiplies two coefficient slices (highest-degree term first).
func PolyMul(a, b []byte) []byte {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]byte, len(a)+len(b)-1)
	for i, ca := range a {
		if ca == 0 {
			continue
		}
		for j, cb := range b {
			out[i+j] ^= Mul(ca, cb)
		}
	}
	return out
}
