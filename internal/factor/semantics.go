// Package factor implements the factor-graph model of Section 2.4 of the
// paper: Boolean random variables, grounded rule groups, and the three
// counting semantics g(n) of Figure 4 (Linear, Logical, Ratio).
//
// A grounded inference rule γ = (q, w) contributes energy
//
//	w(γ, I) = w · sign(γ, I) · g(n(γ, I))        (Equation 1)
//
// where sign is +1 when the head holds in possible world I and -1
// otherwise, and n is the number of satisfied body groundings. A Group in
// this package is exactly one such γ: a head variable, a tied weight, and
// the set of body groundings. The probability of a world is
//
//	Pr[I] = Z⁻¹ · exp( Σ_γ w(γ, I) )             (Equation 2)
package factor

import (
	"fmt"
	"math"
)

// Semantics selects the transformation-group function g(n) applied to the
// satisfied-grounding count of a rule (Figure 4 of the paper).
type Semantics uint8

const (
	// Linear is g(n) = n: every satisfied grounding adds full weight.
	Linear Semantics = iota
	// Logical is g(n) = 1{n>0}: a rule fires at most once per head.
	Logical
	// Ratio is g(n) = log(1+n): diminishing returns in the support count.
	Ratio

	numSemantics = 3
)

// G evaluates the semantics function on a support count.
func (s Semantics) G(n int) float64 {
	switch s {
	case Linear:
		return float64(n)
	case Logical:
		if n > 0 {
			return 1
		}
		return 0
	case Ratio:
		return math.Log1p(float64(n))
	default:
		panic(fmt.Sprintf("factor: unknown semantics %d", s))
	}
}

// String implements fmt.Stringer.
func (s Semantics) String() string {
	switch s {
	case Linear:
		return "linear"
	case Logical:
		return "logical"
	case Ratio:
		return "ratio"
	default:
		return fmt.Sprintf("Semantics(%d)", uint8(s))
	}
}

// ParseSemantics converts a name ("linear", "logical", "ratio") into a
// Semantics value.
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "linear":
		return Linear, nil
	case "logical":
		return Logical, nil
	case "ratio":
		return Ratio, nil
	default:
		return 0, fmt.Errorf("factor: unknown semantics %q (want linear, logical, or ratio)", name)
	}
}
