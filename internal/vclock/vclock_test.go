package vclock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroAndTick(t *testing.T) {
	v := New(3)
	if v.Get(0) != 0 || v.Get(2) != 0 {
		t.Fatal("new clock not zero")
	}
	v.Tick(1)
	v.Tick(1)
	if v.Get(1) != 2 {
		t.Fatalf("Get(1) = %d, want 2", v.Get(1))
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(2)
	c := v.Clone()
	v.Tick(0)
	if c.Get(0) != 0 {
		t.Fatal("Clone aliases original")
	}
}

func TestJoin(t *testing.T) {
	a := VC{3, 1, 0}
	b := VC{1, 5, 0}
	a.Join(b)
	if !a.Equal(VC{3, 5, 0}) {
		t.Fatalf("Join = %v", a)
	}
}

func TestJoinWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width mismatch did not panic")
		}
	}()
	New(2).Join(New(3))
}

func TestEpochCovered(t *testing.T) {
	e := Epoch{P: 1, C: 3}
	if e.Covered(VC{0, 2}) {
		t.Fatal("epoch 3@1 covered by <0,2>")
	}
	if !e.Covered(VC{0, 3}) {
		t.Fatal("epoch 3@1 not covered by <0,3>")
	}
}

func TestStrings(t *testing.T) {
	if got := (VC{1, 2}).String(); got != "<1,2>" {
		t.Fatalf("VC String = %q", got)
	}
	if got := (Epoch{P: 2, C: 7}).String(); got != "7@2" {
		t.Fatalf("Epoch String = %q", got)
	}
}

// Property: Join is the least upper bound — it dominates both inputs and
// any other dominator dominates the join.
func TestQuickJoinIsLUB(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			a[i] = uint32(rng.Intn(5))
			b[i] = uint32(rng.Intn(5))
		}
		j := a.Clone()
		j.Join(b)
		for i := 0; i < n; i++ {
			if j[i] < a[i] || j[i] < b[i] {
				return false
			}
			m := a[i]
			if b[i] > m {
				m = b[i]
			}
			if j[i] != m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// atOrBefore reports v ≤ other component-wise: the point stamped v
// happens before, or is, the point stamped other. It is the full-clock
// compare the epoch tests below check Epoch.Covered against.
func atOrBefore(v, other VC) bool {
	if len(other) != len(v) {
		panic(fmt.Sprintf("vclock: atOrBefore width mismatch %d vs %d", len(v), len(other)))
	}
	for i, x := range v {
		if x > other[i] {
			return false
		}
	}
	return true
}

func TestAtOrBefore(t *testing.T) {
	if !atOrBefore(VC{1, 2}, VC{1, 2}) {
		t.Fatal("atOrBefore must be reflexive")
	}
	if !atOrBefore(VC{1, 2}, VC{1, 3}) {
		t.Fatal("<1,2> is at or before <1,3>")
	}
	if atOrBefore(VC{1, 2}, VC{0, 3}) {
		t.Fatal("<1,2> is not at or before <0,3>")
	}
}

func TestAtOrBeforeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for width mismatch")
		}
	}()
	atOrBefore(VC{1}, VC{1, 2})
}

// An epoch check must agree with the full component scan on every clock
// family with the release-tick discipline: a clock is exported (released)
// at most once per epoch interval, at its end, because the owner ticks
// right after publishing — the protocol the on-the-fly detector follows
// (it ticks after every operation), and the reason its O(1)
// Epoch.Covered compare is exact. The test simulates such a family with
// random access/release-acquire/tick steps and checks every (access
// stamp, observer clock) pair both ways.
func TestQuickEpochCoveredAgreesOnJoinFamilies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(4)
		clocks := make([]VC, p)
		for i := range clocks {
			clocks[i] = New(p)
			clocks[i].Tick(i)
		}
		type stamp struct {
			e Epoch
			v VC
		}
		var stamps []stamp
		for step := 0; step < 40; step++ {
			i := rng.Intn(p)
			switch rng.Intn(3) {
			case 0: // local access: stamp, then tick
				stamps = append(stamps, stamp{Epoch{P: i, C: clocks[i].Get(i)}, clocks[i].Clone()})
				clocks[i].Tick(i)
			case 1: // release i -> acquire j: whole-clock join, then the
				// releaser ticks — the discipline that makes epochs exact.
				j := rng.Intn(p)
				if j != i {
					clocks[j].Join(clocks[i])
					clocks[i].Tick(i)
				}
			default: // just advance
				clocks[i].Tick(i)
			}
		}
		for _, s := range stamps {
			for i := range clocks {
				if s.e.Covered(clocks[i]) != atOrBefore(s.v, clocks[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
