// Package vclock implements vector clocks and epochs in the style used by
// on-the-fly race detectors (Dinning–Schonberg and successors).
//
// The paper's post-mortem technique does not need vector clocks — it builds
// the happens-before-1 graph explicitly — but §5 compares against on-the-fly
// detection, which we implement with the classic per-thread vector clock +
// per-location access history scheme (internal/onthefly).
package vclock

import (
	"fmt"
	"strings"
)

// VC is a fixed-width vector clock over processor ids 0..n-1.
type VC []uint32

// New returns the zero clock of width n.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Tick increments the component of processor p.
func (v VC) Tick(p int) { v[p]++ }

// Get returns the component of processor p.
func (v VC) Get(p int) uint32 { return v[p] }

// Join sets v to the component-wise maximum of v and other. This is the
// acquire-side operation: the acquiring processor learns everything the
// releasing processor had completed.
func (v VC) Join(other VC) {
	if len(other) != len(v) {
		panic(fmt.Sprintf("vclock: Join width mismatch %d vs %d", len(v), len(other)))
	}
	for i, o := range other {
		if o > v[i] {
			v[i] = o
		}
	}
}

// Equal reports component-wise equality.
func (v VC) Equal(other VC) bool {
	if len(v) != len(other) {
		return false
	}
	for i := range v {
		if v[i] != other[i] {
			return false
		}
	}
	return true
}

// String renders the clock as <a,b,c>.
func (v VC) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// Epoch is a scalar clock@processor pair: the lightweight last-access
// summary used in bounded access histories. An epoch e is covered by a
// vector clock v when v has advanced at least to e on e's processor.
type Epoch struct {
	P int    // processor id
	C uint32 // clock value
}

// Covered reports whether the access summarized by e happens before the
// point summarized by v (e.C ≤ v[e.P]).
func (e Epoch) Covered(v VC) bool { return e.C <= v.Get(e.P) }

// String renders the epoch as c@p.
func (e Epoch) String() string { return fmt.Sprintf("%d@%d", e.C, e.P) }
