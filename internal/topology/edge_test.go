package topology

import "testing"

// Radix 2 is the smallest legal radix and a structural corner: on a
// 2-ary ring every node's Plus and Minus neighbor are the same node (two
// parallel links to the same peer, one of which is the wrap), minimal
// direction choices are never unique-by-shorter-side, and the 2-ary tree
// collapses each switch level to a single bit. These tests pin that the
// constructors, wiring and metrics all survive the corner.

func TestRadixTwoCube(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		c, err := NewCube(2, n)
		if err != nil {
			t.Fatalf("NewCube(2,%d): %v", n, err)
		}
		if err := Validate(c); err != nil {
			t.Fatalf("cube(2,%d) wiring: %v", n, err)
		}
		want, err := Pow(2, n)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nodes() != want {
			t.Fatalf("cube(2,%d) has %d nodes, want %d", n, c.Nodes(), want)
		}
		for x := 0; x < c.Nodes(); x++ {
			for d := 0; d < n; d++ {
				plus, minus := c.neighbor(x, d, Plus), c.neighbor(x, d, Minus)
				if plus != minus {
					t.Fatalf("cube(2,%d): node %d dim %d has distinct plus/minus neighbors %d, %d", n, x, d, plus, minus)
				}
				if c.RingDistance(c.Digit(x, d), c.Digit(plus, d)) != 1 {
					t.Fatalf("cube(2,%d): neighbor not at ring distance 1", n)
				}
			}
		}
		// The antipode differs in every digit: n ring hops, plus the
		// injection and ejection links of the NIC-to-NIC convention.
		if got := c.Distance(0, c.Nodes()-1); got != n+2 {
			t.Fatalf("cube(2,%d) antipodal distance %d, want %d", n, got, n+2)
		}
	}
}

func TestRadixTwoMesh(t *testing.T) {
	m, err := NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
	// Without wrap links the 2-ary ring is a single edge; distances are
	// Manhattan on the unit square plus the two NIC links.
	if got := m.Distance(0, 3); got != 4 {
		t.Fatalf("mesh(2,2) corner distance %d, want 4", got)
	}
	for x := 0; x < m.Nodes(); x++ {
		for d := 0; d < 2; d++ {
			for dir := 0; dir < 2; dir++ {
				if m.CrossesWrap(x, d, dir) {
					t.Fatalf("mesh reports a wrap crossing at node %d", x)
				}
			}
		}
	}
}

func TestRadixTwoTree(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		tr, err := NewTree(2, n)
		if err != nil {
			t.Fatalf("NewTree(2,%d): %v", n, err)
		}
		if err := Validate(tr); err != nil {
			t.Fatalf("tree(2,%d) wiring: %v", n, err)
		}
		want, err := Pow(2, n)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Nodes() != want {
			t.Fatalf("tree(2,%d) has %d nodes, want %d", n, tr.Nodes(), want)
		}
		// Complementary leaves meet at the top level (NCA level n-1):
		// distance 2n. Siblings meet at level 0: distance 2. For n=1 the
		// two coincide — the whole tree is one switch.
		if far := tr.Distance(0, tr.Nodes()-1); far != 2*n {
			t.Fatalf("tree(2,%d): antipodal distance %d, want %d", n, far, 2*n)
		}
		if near := tr.Distance(0, 1); near != 2 {
			t.Fatalf("tree(2,%d): sibling distance %d, want 2", n, near)
		}
		for x := 1; x < tr.Nodes(); x++ {
			if d := tr.Distance(0, x); d < 2 || d > 2*n {
				t.Fatalf("tree(2,%d): distance to %d is %d, outside [2, %d]", n, x, d, 2*n)
			}
		}
	}
}
