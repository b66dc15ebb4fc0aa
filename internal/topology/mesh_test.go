package topology

import "testing"

func mustMesh(t *testing.T, k, n int) *Cube {
	t.Helper()
	m, err := NewMesh(k, n)
	if err != nil {
		t.Fatalf("NewMesh(%d,%d): %v", k, n, err)
	}
	return m
}

func TestMeshValidateAndName(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{2, 2}, {4, 2}, {3, 3}, {16, 2}} {
		m := mustMesh(t, tc.k, tc.n)
		if err := Validate(m); err != nil {
			t.Errorf("mesh(%d,%d): %v", tc.k, tc.n, err)
		}
	}
	if got := mustMesh(t, 16, 2).Name(); got != "16-ary 2-mesh" {
		t.Fatalf("Name() = %q", got)
	}
}

func TestMeshBorderPortsUnused(t *testing.T) {
	m := mustMesh(t, 4, 2)
	unused := 0
	for r := 0; r < m.Routers(); r++ {
		for d := 0; d < m.N; d++ {
			plusPort := m.RouterPorts(r)[PortOf(d, Plus)]
			minusPort := m.RouterPorts(r)[PortOf(d, Minus)]
			if (m.Digit(r, d) == m.K-1) != (plusPort.Kind == PortUnused) {
				t.Fatalf("node %d dim %d plus port kind %v", r, d, plusPort.Kind)
			}
			if (m.Digit(r, d) == 0) != (minusPort.Kind == PortUnused) {
				t.Fatalf("node %d dim %d minus port kind %v", r, d, minusPort.Kind)
			}
			if plusPort.Kind == PortUnused {
				unused++
			}
			if minusPort.Kind == PortUnused {
				unused++
			}
		}
	}
	// 2 borders per dimension x k^(n-1) rows.
	if want := 2 * m.N * m.Nodes() / m.K; unused != want {
		t.Fatalf("%d unused border ports, want %d", unused, want)
	}
}

func TestMeshNoWrapCrossings(t *testing.T) {
	m := mustMesh(t, 4, 2)
	for r := 0; r < m.Routers(); r++ {
		for d := 0; d < m.N; d++ {
			if m.CrossesWrap(r, d, Plus) || m.CrossesWrap(r, d, Minus) {
				t.Fatalf("mesh reports a wrap crossing at node %d dim %d", r, d)
			}
		}
	}
}

func TestMeshDistanceIsManhattan(t *testing.T) {
	m := mustMesh(t, 8, 2)
	c := mustCube(t, 8, 2)
	if got := m.Distance(0, 7); got != 7+2 {
		t.Fatalf("mesh corner distance %d, want 9 (no wrap shortcut)", got)
	}
	if got := c.Distance(0, 7); got != 1+2 {
		t.Fatalf("torus corner distance %d, want 3", got)
	}
	for src := 0; src < m.Nodes(); src += 5 {
		for dst := 0; dst < m.Nodes(); dst += 7 {
			if m.Distance(src, dst) < c.Distance(src, dst) {
				t.Fatalf("mesh shorter than torus at (%d,%d)", src, dst)
			}
		}
	}
}

func TestMeshMinimalDirUnique(t *testing.T) {
	m := mustMesh(t, 8, 2)
	for cur := 0; cur < m.Nodes(); cur += 3 {
		for dst := 0; dst < m.Nodes(); dst += 5 {
			for d := 0; d < m.N; d++ {
				plus, minus := m.MinimalDirs(cur, dst, d)
				if plus && minus {
					t.Fatalf("mesh offered two minimal directions at (%d,%d,dim %d)", cur, dst, d)
				}
				if a, b := m.Digit(cur, d), m.Digit(dst, d); (a != b) != (plus || minus) {
					t.Fatalf("minimal direction presence wrong at (%d,%d,dim %d)", cur, dst, d)
				}
			}
		}
	}
}

func TestMeshBisectionHalvesTorus(t *testing.T) {
	m, c := mustMesh(t, 16, 2), mustCube(t, 16, 2)
	if m.BisectionLinks()*2 != c.BisectionLinks() {
		t.Fatalf("mesh bisection %d, torus %d: want half", m.BisectionLinks(), c.BisectionLinks())
	}
}

func TestMeshNeighborAcrossBorderPanics(t *testing.T) {
	m := mustMesh(t, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("border crossing did not panic")
		}
	}()
	m.neighbor(3, 0, Plus)
}

func TestMeshRingDistanceNoWrap(t *testing.T) {
	m := mustMesh(t, 8, 1)
	if m.RingDistance(0, 7) != 7 {
		t.Fatalf("mesh line distance %d, want 7", m.RingDistance(0, 7))
	}
	if m.RingDistance(7, 0) != 7 {
		t.Fatal("mesh line distance asymmetric")
	}
}
