package bitset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("zero value not empty: len=%d", s.Len())
	}
	s.Add(5)
	if !s.Contains(5) {
		t.Fatal("Add on zero value failed")
	}
}

func TestAddContainsRemove(t *testing.T) {
	s := New(10)
	for _, v := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		if s.Contains(v) {
			t.Fatalf("fresh set contains %d", v)
		}
		s.Add(v)
		if !s.Contains(v) {
			t.Fatalf("set missing %d after Add", v)
		}
	}
	if got := s.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Len(); got != 7 {
		t.Fatalf("Len = %d, want 7", got)
	}
	// Removing an absent or out-of-range value is a no-op.
	s.Remove(64)
	s.Remove(99999)
	s.Remove(-3)
	if got := s.Len(); got != 7 {
		t.Fatalf("Len after no-op removes = %d, want 7", got)
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(4).Add(-1)
}

func TestContainsNegative(t *testing.T) {
	s := New(4)
	if s.Contains(-1) {
		t.Fatal("Contains(-1) = true")
	}
}

func TestClone(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 200})
	c := s.Clone()
	s.Remove(200)
	if c.Len() != 4 || !c.Contains(200) {
		t.Fatal("clone mutated by Remove on original")
	}
	c.Add(7)
	if s.Contains(7) {
		t.Fatal("original mutated by Add on clone")
	}
}

func TestUnion(t *testing.T) {
	a := FromSlice([]int{1, 2, 3})
	b := FromSlice([]int{3, 4, 500})
	a.Union(b)
	want := []int{1, 2, 3, 4, 500}
	got := a.Slice()
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
}

func TestEqualAcrossCapacities(t *testing.T) {
	a := New(1024)
	b := New(1)
	a.Add(3)
	b.Add(3)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("sets with same elements but different capacity not Equal")
	}
	a.Add(900)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal sets reported Equal")
	}
}

func TestSliceSorted(t *testing.T) {
	s := FromSlice([]int{9, 1, 128, 0, 64})
	got := s.Slice()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("Slice not sorted: %v", got)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := FromSlice([]int{1, 2, 3, 4, 5})
	n := 0
	s.Range(func(v int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("Range visited %d elements, want 3", n)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]int{2, 1}).String(); got != "{1, 2}" {
		t.Fatalf("String = %q, want {1, 2}", got)
	}
	if got := New(0).String(); got != "{}" {
		t.Fatalf("empty String = %q, want {}", got)
	}
}

// Property: a Set behaves like a map[int]bool under a random operation
// sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(ops []uint16) bool {
		s := &Set{}
		m := map[int]bool{}
		for _, op := range ops {
			v := int(op % 300)
			switch op % 3 {
			case 0:
				s.Add(v)
				m[v] = true
			case 1:
				s.Remove(v)
				delete(m, v)
			case 2:
				if s.Contains(v) != m[v] {
					return false
				}
			}
		}
		if s.Len() != len(m) {
			return false
		}
		for v := range m {
			if !s.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the union holds exactly the elements of either operand.
func TestQuickUnion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := &Set{}, &Set{}
		for _, x := range xs {
			a.Add(int(x % 500))
		}
		for _, y := range ys {
			b.Add(int(y % 500))
		}
		u := a.Clone()
		u.Union(b)
		n := 0
		for v := 0; v < 500; v++ {
			if u.Contains(v) != (a.Contains(v) || b.Contains(v)) {
				return false
			}
			if u.Contains(v) {
				n++
			}
		}
		return u.Len() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
