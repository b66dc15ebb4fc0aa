package topology

import (
	"testing"
	"testing/quick"
)

func mustCube(t *testing.T, k, n int) *Cube {
	t.Helper()
	c, err := NewCube(k, n)
	if err != nil {
		t.Fatalf("NewCube(%d,%d): %v", k, n, err)
	}
	return c
}

func TestNewCubeRejectsBadParams(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1, 2}, {0, 2}, {-3, 2}, {4, 0}, {4, -1}} {
		if _, err := NewCube(tc.k, tc.n); err == nil {
			t.Errorf("NewCube(%d,%d) accepted invalid parameters", tc.k, tc.n)
		}
	}
}

func TestCubeSizes(t *testing.T) {
	for _, tc := range []struct{ k, n, nodes int }{
		{2, 1, 2}, {2, 3, 8}, {4, 2, 16}, {5, 2, 25}, {16, 2, 256}, {8, 3, 512},
	} {
		c := mustCube(t, tc.k, tc.n)
		if c.Nodes() != tc.nodes || c.Routers() != tc.nodes {
			t.Errorf("%s: nodes=%d routers=%d, want %d", c.Name(), c.Nodes(), c.Routers(), tc.nodes)
		}
		if c.Degree() != 2*tc.n+1 {
			t.Errorf("%s: degree %d, want %d", c.Name(), c.Degree(), 2*tc.n+1)
		}
	}
}

func TestCubeValidate(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{2, 2}, {3, 2}, {4, 2}, {2, 4}, {16, 2}, {4, 3}} {
		if err := Validate(mustCube(t, tc.k, tc.n)); err != nil {
			t.Errorf("cube(%d,%d): %v", tc.k, tc.n, err)
		}
	}
}

func TestCubeName(t *testing.T) {
	if got := mustCube(t, 16, 2).Name(); got != "16-ary 2-cube" {
		t.Fatalf("Name() = %q", got)
	}
}

func TestCubeDigitRoundTrip(t *testing.T) {
	c := mustCube(t, 5, 3)
	check := func(x uint16, d uint8, v uint8) bool {
		node := int(x) % c.Nodes()
		dim := int(d) % c.N
		val := int(v) % c.K
		y := c.WithDigit(node, dim, val)
		if c.Digit(y, dim) != val {
			return false
		}
		// Other digits unchanged.
		for dd := 0; dd < c.N; dd++ {
			if dd != dim && c.Digit(y, dd) != c.Digit(node, dd) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCubeNodeReconstructsFromDigits(t *testing.T) {
	c := mustCube(t, 4, 3)
	for x := 0; x < c.Nodes(); x++ {
		got := 0
		for d := c.N - 1; d >= 0; d-- {
			got = got*c.K + c.Digit(x, d)
		}
		if got != x {
			t.Fatalf("digits of %d recompose to %d", x, got)
		}
	}
}

func TestCubeNeighborInverse(t *testing.T) {
	c := mustCube(t, 6, 2)
	for x := 0; x < c.Nodes(); x++ {
		for d := 0; d < c.N; d++ {
			if c.neighbor(c.neighbor(x, d, Plus), d, Minus) != x {
				t.Fatalf("plus then minus not identity at node %d dim %d", x, d)
			}
			if c.neighbor(c.neighbor(x, d, Minus), d, Plus) != x {
				t.Fatalf("minus then plus not identity at node %d dim %d", x, d)
			}
		}
	}
}

func TestCubeNeighborChangesOnlyOneDigit(t *testing.T) {
	c := mustCube(t, 5, 3)
	for x := 0; x < c.Nodes(); x += 7 {
		for d := 0; d < c.N; d++ {
			y := c.neighbor(x, d, Plus)
			for dd := 0; dd < c.N; dd++ {
				if dd == d {
					want := (c.Digit(x, dd) + 1) % c.K
					if c.Digit(y, dd) != want {
						t.Fatalf("node %d dim %d: digit %d -> %d, want %d", x, d, c.Digit(x, dd), c.Digit(y, dd), want)
					}
				} else if c.Digit(y, dd) != c.Digit(x, dd) {
					t.Fatalf("node %d dim %d: unrelated digit %d changed", x, d, dd)
				}
			}
		}
	}
}

func TestCubeWiringMatchesNeighbor(t *testing.T) {
	c := mustCube(t, 4, 2)
	for r := 0; r < c.Routers(); r++ {
		for d := 0; d < c.N; d++ {
			for _, dir := range []int{Plus, Minus} {
				p := c.RouterPorts(r)[PortOf(d, dir)]
				if p.Kind != PortRouter || p.Peer != c.neighbor(r, d, dir) {
					t.Fatalf("router %d port (%d,%d) wired to %d, want %d", r, d, dir, p.Peer, c.neighbor(r, d, dir))
				}
			}
		}
		if p := c.RouterPorts(r)[c.NodePort()]; p.Kind != PortNode || p.Peer != r {
			t.Fatalf("router %d node port wired to %v", r, p)
		}
	}
}

func TestCubeCrossesWrap(t *testing.T) {
	c := mustCube(t, 4, 2)
	for r := 0; r < c.Routers(); r++ {
		for d := 0; d < c.N; d++ {
			wantPlus := c.Digit(r, d) == 3
			wantMinus := c.Digit(r, d) == 0
			if c.CrossesWrap(r, d, Plus) != wantPlus || c.CrossesWrap(r, d, Minus) != wantMinus {
				t.Fatalf("node %d dim %d wrap flags wrong", r, d)
			}
		}
	}
}

func TestCubeExactlyOneWrapPerRingDirection(t *testing.T) {
	c := mustCube(t, 8, 2)
	// Walk each ring in the Plus direction: exactly one link crosses the
	// wrap.
	for row := 0; row < c.K; row++ {
		start := c.WithDigit(c.WithDigit(0, 1, row), 0, 0)
		wraps := 0
		x := start
		for i := 0; i < c.K; i++ {
			if c.CrossesWrap(x, 0, Plus) {
				wraps++
			}
			x = c.neighbor(x, 0, Plus)
		}
		if x != start || wraps != 1 {
			t.Fatalf("ring %d: returned to %d (start %d) with %d wraps", row, x, start, wraps)
		}
	}
}

func TestCubeRingDistance(t *testing.T) {
	c := mustCube(t, 8, 1)
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			d := c.RingDistance(a, b)
			if d != c.RingDistance(b, a) {
				t.Fatalf("ring distance asymmetric at (%d,%d)", a, b)
			}
			if d > 4 {
				t.Fatalf("ring distance %d exceeds k/2", d)
			}
			if (d == 0) != (a == b) {
				t.Fatalf("ring distance zero iff equal violated at (%d,%d)", a, b)
			}
		}
	}
	if c.RingDistance(0, 4) != 4 || c.RingDistance(1, 7) != 2 || c.RingDistance(6, 1) != 3 {
		t.Fatal("ring distance spot checks failed")
	}
}

func TestCubeMinimalDirs(t *testing.T) {
	c := mustCube(t, 8, 2)
	cases := []struct {
		cur, dst, dim       int
		wantPlus, wantMinus bool
	}{
		{0, 3, 0, true, false},        // forward 3 < backward 5
		{0, 5, 0, false, true},        // forward 5 > backward 3
		{0, 4, 0, true, true},         // exact half-way: both minimal
		{0, 0, 0, false, false},       // aligned
		{8 * 2, 8 * 6, 1, true, true}, // dim 1, offset 4 of 8
	}
	for _, tc := range cases {
		plus, minus := c.MinimalDirs(tc.cur, tc.dst, tc.dim)
		if plus != tc.wantPlus || minus != tc.wantMinus {
			t.Errorf("MinimalDirs(%d,%d,dim %d) = (%v,%v), want (%v,%v)",
				tc.cur, tc.dst, tc.dim, plus, minus, tc.wantPlus, tc.wantMinus)
		}
	}
}

func TestCubeMinimalDirsConsistentWithDistance(t *testing.T) {
	// Moving in a minimal direction must reduce the ring distance.
	c := mustCube(t, 7, 2)
	for cur := 0; cur < c.Nodes(); cur += 3 {
		for dst := 0; dst < c.Nodes(); dst += 5 {
			for d := 0; d < c.N; d++ {
				plus, minus := c.MinimalDirs(cur, dst, d)
				base := c.RingDistance(c.Digit(cur, d), c.Digit(dst, d))
				if plus {
					next := c.neighbor(cur, d, Plus)
					if c.RingDistance(c.Digit(next, d), c.Digit(dst, d)) != base-1 {
						t.Fatalf("plus not minimal at cur=%d dst=%d dim=%d", cur, dst, d)
					}
				}
				if minus {
					next := c.neighbor(cur, d, Minus)
					if c.RingDistance(c.Digit(next, d), c.Digit(dst, d)) != base-1 {
						t.Fatalf("minus not minimal at cur=%d dst=%d dim=%d", cur, dst, d)
					}
				}
				if !plus && !minus && base != 0 {
					t.Fatalf("no minimal direction despite offset at cur=%d dst=%d dim=%d", cur, dst, d)
				}
			}
		}
	}
}

func TestCubeDeterministicDirTieIsPlus(t *testing.T) {
	c := mustCube(t, 8, 1)
	if c.DeterministicDir(0, 4, 0) != Plus {
		t.Fatal("half-way tie not resolved toward Plus")
	}
	if c.DeterministicDir(0, 5, 0) != Minus {
		t.Fatal("backward-shorter case not Minus")
	}
	if c.DeterministicDir(0, 3, 0) != Plus {
		t.Fatal("forward-shorter case not Plus")
	}
}

func TestCubeDistance(t *testing.T) {
	c := mustCube(t, 16, 2)
	if c.Distance(5, 5) != 0 {
		t.Fatal("self distance not 0")
	}
	// Neighbours: 1 torus hop + injection + ejection.
	if got := c.Distance(0, 1); got != 3 {
		t.Fatalf("neighbour distance %d, want 3", got)
	}
	// Opposite corner: 8+8 torus hops + 2.
	opposite := c.WithDigit(c.WithDigit(0, 0, 8), 1, 8)
	if got := c.Distance(0, opposite); got != 18 {
		t.Fatalf("antipode distance %d, want 18", got)
	}
	for src := 0; src < c.Nodes(); src += 17 {
		for dst := 0; dst < c.Nodes(); dst += 13 {
			if c.Distance(src, dst) != c.Distance(dst, src) {
				t.Fatalf("distance asymmetric at (%d,%d)", src, dst)
			}
		}
	}
}

func TestCubeBisectionLinks(t *testing.T) {
	if got := mustCube(t, 16, 2).BisectionLinks(); got != 32 {
		t.Fatalf("16-ary 2-cube bisection = %d bidirectional links, want 32", got)
	}
	if got := mustCube(t, 8, 3).BisectionLinks(); got != 128 {
		t.Fatalf("8-ary 3-cube bisection = %d, want 128", got)
	}
}

func TestCubeDimDirOf(t *testing.T) {
	c := mustCube(t, 4, 3)
	for d := 0; d < c.N; d++ {
		for _, dir := range []int{Plus, Minus} {
			gd, gdir := c.DimDirOf(PortOf(d, dir))
			if gd != d || gdir != dir {
				t.Fatalf("DimDirOf(PortOf(%d,%d)) = (%d,%d)", d, dir, gd, gdir)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DimDirOf(node port) did not panic")
		}
	}()
	c.DimDirOf(c.NodePort())
}

func TestPow(t *testing.T) {
	cases := []struct{ b, e, want int }{{2, 0, 1}, {2, 10, 1024}, {4, 4, 256}, {16, 2, 256}, {10, 0, 1}, {0, 3, 0}, {1, 100, 1}}
	for _, tc := range cases {
		got, err := Pow(tc.b, tc.e)
		if err != nil || got != tc.want {
			t.Errorf("Pow(%d,%d) = %d, %v; want %d", tc.b, tc.e, got, err, tc.want)
		}
	}
	if _, err := Pow(2, 80); err == nil {
		t.Error("Pow(2,80) did not report overflow")
	}
	if _, err := Pow(-2, 3); err == nil {
		t.Error("Pow(-2,3) accepted negative base")
	}
	if _, err := Pow(2, -3); err == nil {
		t.Error("Pow(2,-3) accepted negative exponent")
	}
}
