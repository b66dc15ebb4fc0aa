package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func mustTree(t *testing.T, k, n int) *Tree {
	t.Helper()
	tr, err := NewTree(k, n)
	if err != nil {
		t.Fatalf("NewTree(%d,%d): %v", k, n, err)
	}
	return tr
}

func TestNewTreeRejectsBadParams(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{1, 2}, {0, 2}, {-2, 2}, {4, 0}, {4, -1}} {
		if _, err := NewTree(tc.k, tc.n); err == nil {
			t.Errorf("NewTree(%d,%d) accepted invalid parameters", tc.k, tc.n)
		}
	}
}

func TestTreeSizes(t *testing.T) {
	for _, tc := range []struct{ k, n, nodes, switches int }{
		{2, 1, 2, 1}, {2, 2, 4, 4}, {2, 3, 8, 12}, {4, 2, 16, 8}, {4, 4, 256, 256}, {3, 3, 27, 27},
	} {
		tr := mustTree(t, tc.k, tc.n)
		if tr.Nodes() != tc.nodes {
			t.Errorf("%s: %d nodes, want %d", tr.Name(), tr.Nodes(), tc.nodes)
		}
		if tr.Routers() != tc.switches {
			t.Errorf("%s: %d switches, want %d (n*k^(n-1))", tr.Name(), tr.Routers(), tc.switches)
		}
		if tr.Degree() != 2*tc.k {
			t.Errorf("%s: degree %d, want %d", tr.Name(), tr.Degree(), 2*tc.k)
		}
	}
}

func TestTreeValidate(t *testing.T) {
	for _, tc := range []struct{ k, n int }{{2, 2}, {2, 4}, {3, 2}, {4, 2}, {4, 3}, {4, 4}} {
		if err := Validate(mustTree(t, tc.k, tc.n)); err != nil {
			t.Errorf("tree(%d,%d): %v", tc.k, tc.n, err)
		}
	}
}

func TestTreeName(t *testing.T) {
	if got := mustTree(t, 4, 4).Name(); got != "4-ary 4-tree" {
		t.Fatalf("Name() = %q", got)
	}
}

func TestTreeLinkInventory(t *testing.T) {
	// The paper counts n*k^n links: k^n node links plus (n-1)*k^n
	// inter-switch links; the top-level external connections are unused.
	tr := mustTree(t, 4, 4)
	var nodeLinks, switchLinks, unused int
	for r := 0; r < tr.Routers(); r++ {
		for _, p := range tr.RouterPorts(r) {
			switch p.Kind {
			case PortNode:
				nodeLinks++
			case PortRouter:
				switchLinks++
			case PortUnused:
				unused++
			}
		}
	}
	switchLinks /= 2 // each inter-switch link seen from both ends
	if nodeLinks != 256 {
		t.Errorf("node links = %d, want 256", nodeLinks)
	}
	if switchLinks != 3*256 {
		t.Errorf("inter-switch links = %d, want 768", switchLinks)
	}
	if total := nodeLinks + switchLinks; total != tr.N*tr.Nodes() {
		t.Errorf("total links = %d, want n*k^n = %d", total, tr.N*tr.Nodes())
	}
	if unused != 256 {
		t.Errorf("unused (external) ports = %d, want k^n = 256", unused)
	}
}

func TestTreeTopLevelUpPortsUnused(t *testing.T) {
	tr := mustTree(t, 4, 3)
	for label := 0; label < tr.Nodes()/tr.K; label++ {
		sw := tr.SwitchIndex(tr.N-1, label)
		for j := 0; j < tr.K; j++ {
			if p := tr.RouterPorts(sw)[tr.UpPort(j)]; p.Kind != PortUnused {
				t.Fatalf("top switch %d up port %d is %v, want unused", sw, j, p)
			}
		}
	}
}

func TestTreeLevelLabelRoundTrip(t *testing.T) {
	tr := mustTree(t, 4, 4)
	for level := 0; level < tr.N; level++ {
		for label := 0; label < tr.Nodes()/tr.K; label++ {
			sw := tr.SwitchIndex(level, label)
			if tr.SwitchLevel(sw) != level || tr.SwitchLabel(sw) != label {
				t.Fatalf("switch (%d,%d) round-trips to (%d,%d)", level, label, tr.SwitchLevel(sw), tr.SwitchLabel(sw))
			}
		}
	}
}

func TestTreeAttachment(t *testing.T) {
	tr := mustTree(t, 4, 2)
	for nd := 0; nd < tr.Nodes(); nd++ {
		at := tr.NodeAttach(nd)
		if tr.SwitchLevel(at.Router) != 0 {
			t.Fatalf("node %d attaches at level %d", nd, tr.SwitchLevel(at.Router))
		}
		if tr.SwitchLabel(at.Router) != nd/tr.K || at.Port != nd%tr.K {
			t.Fatalf("node %d attaches at (label %d, port %d)", nd, tr.SwitchLabel(at.Router), at.Port)
		}
	}
}

func TestTreeParentChildDifferOnlyInFreedDigit(t *testing.T) {
	tr := mustTree(t, 4, 4)
	for sw := 0; sw < tr.Routers(); sw++ {
		level := tr.SwitchLevel(sw)
		if level == tr.N-1 {
			continue
		}
		for j := 0; j < tr.K; j++ {
			p := tr.RouterPorts(sw)[tr.UpPort(j)]
			if p.Kind != PortRouter {
				t.Fatalf("switch %d up port %d not wired", sw, j)
			}
			if tr.SwitchLevel(p.Peer) != level+1 {
				t.Fatalf("switch %d (level %d) parent at level %d", sw, level, tr.SwitchLevel(p.Peer))
			}
			a, b := tr.SwitchLabel(sw), tr.SwitchLabel(p.Peer)
			for i := 0; i < tr.N-1; i++ {
				da, db := tr.labelDigit(a, i), tr.labelDigit(b, i)
				if i == level {
					if db != j {
						t.Fatalf("parent digit %d = %d, want up port %d", i, db, j)
					}
				} else if da != db {
					t.Fatalf("switch %d parent differs at digit %d != level %d", sw, i, level)
				}
			}
		}
	}
}

func TestTreeNCALevel(t *testing.T) {
	tr := mustTree(t, 4, 4)
	if tr.NCALevel(5, 5) != -1 {
		t.Fatal("NCA of a node with itself should be -1")
	}
	// Differ only in digit 0 -> NCA at level 0.
	if got := tr.NCALevel(0, 3); got != 0 {
		t.Fatalf("NCALevel(0,3) = %d, want 0", got)
	}
	// Differ in the top digit -> NCA at the root level.
	if got := tr.NCALevel(0, 192); got != 3 {
		t.Fatalf("NCALevel(0,192) = %d, want 3", got)
	}
	check := func(a, b uint16) bool {
		src, dst := int(a)%256, int(b)%256
		got := tr.NCALevel(src, dst)
		if got != tr.NCALevel(dst, src) {
			return false
		}
		want := -1
		for i := 0; i < 4; i++ {
			if tr.Digit(src, i) != tr.Digit(dst, i) {
				want = i
			}
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeIsAncestor(t *testing.T) {
	tr := mustTree(t, 4, 3)
	for nd := 0; nd < tr.Nodes(); nd += 5 {
		// The attached level-0 switch is an ancestor; so is the chain of
		// switches reached by following the destination's down ports
		// upward.
		at := tr.NodeAttach(nd)
		if !tr.IsAncestor(at.Router, nd) {
			t.Fatalf("attach switch of %d not its ancestor", nd)
		}
		// All top-level switches are ancestors of every node.
		for label := 0; label < tr.Nodes()/tr.K; label++ {
			root := tr.SwitchIndex(tr.N-1, label)
			if !tr.IsAncestor(root, nd) {
				t.Fatalf("root %d not ancestor of %d", label, nd)
			}
		}
	}
	// A level-0 switch is an ancestor only of its own k leaves.
	count := 0
	sw := tr.SwitchIndex(0, 7)
	for nd := 0; nd < tr.Nodes(); nd++ {
		if tr.IsAncestor(sw, nd) {
			count++
			if nd/tr.K != 7 {
				t.Fatalf("level-0 switch 7 claims ancestry of node %d", nd)
			}
		}
	}
	if count != tr.K {
		t.Fatalf("level-0 switch is ancestor of %d nodes, want %d", count, tr.K)
	}
}

func TestTreeAncestorCountsByLevel(t *testing.T) {
	// A switch at level l is the ancestor of exactly k^(l+1) leaves (the
	// dual of the paper's k^m nearest common ancestors at level m).
	tr := mustTree(t, 4, 3)
	for level := 0; level < tr.N; level++ {
		sw := tr.SwitchIndex(level, 0)
		count := 0
		for nd := 0; nd < tr.Nodes(); nd++ {
			if tr.IsAncestor(sw, nd) {
				count++
			}
		}
		want := 1
		for i := 0; i <= level; i++ {
			want *= tr.K
		}
		if count != want {
			t.Fatalf("level-%d switch is ancestor of %d leaves, want %d", level, count, want)
		}
	}
}

func TestTreeDownPortDescendsTowardDestination(t *testing.T) {
	tr := mustTree(t, 4, 3)
	// From any root, following DownPortTo must reach the destination.
	for dst := 0; dst < tr.Nodes(); dst += 3 {
		sw := tr.SwitchIndex(tr.N-1, 0)
		// Move to a root that is an ancestor (all roots are).
		for level := tr.N - 1; level > 0; level-- {
			port := tr.DownPortTo(level, dst)
			p := tr.RouterPorts(sw)[port]
			if p.Kind != PortRouter {
				t.Fatalf("descent from level %d hit non-router port", level)
			}
			sw = p.Peer
			if !tr.IsAncestor(sw, dst) {
				t.Fatalf("descent lost ancestry of %d at level %d", dst, tr.SwitchLevel(sw))
			}
		}
		port := tr.DownPortTo(0, dst)
		p := tr.RouterPorts(sw)[port]
		if p.Kind != PortNode || p.Peer != dst {
			t.Fatalf("final descent for %d reached %v", dst, p)
		}
	}
}

func TestTreeDistance(t *testing.T) {
	tr := mustTree(t, 4, 4)
	if tr.Distance(9, 9) != 0 {
		t.Fatal("self distance not 0")
	}
	// Same level-0 switch: 2 links.
	if got := tr.Distance(0, 1); got != 2 {
		t.Fatalf("sibling distance %d, want 2", got)
	}
	// Top-digit difference: 2*(3+1) = 8 links.
	if got := tr.Distance(0, 192); got != 8 {
		t.Fatalf("cross-root distance %d, want 8", got)
	}
	for src := 0; src < 256; src += 11 {
		for dst := 0; dst < 256; dst += 7 {
			if tr.Distance(src, dst) != tr.Distance(dst, src) {
				t.Fatalf("asymmetric at (%d,%d)", src, dst)
			}
			if d := tr.Distance(src, dst); d != 0 && d != 2*(tr.NCALevel(src, dst)+1) {
				t.Fatalf("distance %d inconsistent with NCA at (%d,%d)", d, src, dst)
			}
		}
	}
}

// TestMeanDistanceEq5 verifies Equation 5 of the paper: the analytic mean
// distance of the transpose and bit-reversal permutations on a 4-ary
// 4-tree is 7.125, "very close to the network diameter", and the formula
// agrees with the empirical mean over all sources.
func TestMeanDistanceEq5(t *testing.T) {
	tr := mustTree(t, 4, 4)
	if got := tr.MeanPermutationDistance(); math.Abs(got-7.125) > 1e-12 {
		t.Fatalf("Eq 5 mean distance = %v, want 7.125", got)
	}
	// Empirical check against the actual transpose permutation (swap the
	// two halves of the 8-bit address).
	sum := 0.0
	for src := 0; src < 256; src++ {
		dst := (src >> 4) | (src&0xf)<<4
		sum += float64(tr.Distance(src, dst))
	}
	if got := sum / 256; math.Abs(got-7.125) > 1e-12 {
		t.Fatalf("empirical transpose mean distance = %v, want 7.125", got)
	}
	// And bit reversal has the same distance distribution (§8.1).
	sum = 0
	for src := 0; src < 256; src++ {
		dst := 0
		for b := 0; b < 8; b++ {
			dst |= (src >> b & 1) << (7 - b)
		}
		sum += float64(tr.Distance(src, dst))
	}
	if got := sum / 256; math.Abs(got-7.125) > 1e-12 {
		t.Fatalf("empirical bit-reversal mean distance = %v, want 7.125", got)
	}
}

// TestTreeTransposeDistanceDistribution checks the paper's §8.1 counts:
// k^(n/2) nodes at distance 0 and (k-1)*k^(n/2+i-1) at distance n+2i.
func TestTreeTransposeDistanceDistribution(t *testing.T) {
	tr := mustTree(t, 4, 4)
	counts := map[int]int{}
	for src := 0; src < 256; src++ {
		dst := (src >> 4) | (src&0xf)<<4
		counts[tr.Distance(src, dst)]++
	}
	want := map[int]int{0: 16, 6: 48, 8: 192}
	for d, c := range want {
		if counts[d] != c {
			t.Errorf("distance %d: %d nodes, want %d", d, counts[d], c)
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 256 || len(counts) != len(want) {
		t.Errorf("distance histogram %v, want %v", counts, want)
	}
}

func TestTreeMeanPermutationDistanceOddPanics(t *testing.T) {
	tr := mustTree(t, 4, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("MeanPermutationDistance with odd n did not panic")
		}
	}()
	tr.MeanPermutationDistance()
}

func TestTreeIsUpPort(t *testing.T) {
	tr := mustTree(t, 4, 2)
	for p := 0; p < tr.K; p++ {
		if tr.IsUpPort(p) {
			t.Fatalf("down port %d classified as up", p)
		}
	}
	for j := 0; j < tr.K; j++ {
		if !tr.IsUpPort(tr.UpPort(j)) {
			t.Fatalf("up port %d classified as down", tr.UpPort(j))
		}
	}
}

// MeanPermutationDistance evaluates Equation 5 of the paper analytically:
// the mean distance d_m of the transpose and bit-reversal permutations,
// d_m = (k-1)/k^(n/2+1) * sum_{i=1..n/2} (n+2i) k^i, defined for even n.
func (t *Tree) MeanPermutationDistance() float64 {
	if t.N%2 != 0 {
		panic("topology: MeanPermutationDistance requires even n")
	}
	half := t.N / 2
	sum := 0.0
	ki := 1.0
	for i := 1; i <= half; i++ {
		ki *= float64(t.K)
		sum += float64(t.N+2*i) * ki
	}
	den := 1.0
	for i := 0; i < half+1; i++ {
		den *= float64(t.K)
	}
	return float64(t.K-1) / den * sum
}
