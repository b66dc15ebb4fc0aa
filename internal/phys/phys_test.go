package phys

import (
	"fmt"
	"math"
	"testing"

	"smart/internal/topology"
)

func paperPair(t *testing.T) (*topology.Tree, *topology.Cube) {
	t.Helper()
	tree, err := topology.NewTree(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := topology.NewCube(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tree, cube
}

// TestMatchedPairPaperInstance verifies §5's fairness conditions for the
// paper's chosen pair: same processing nodes and same routing chips.
func TestMatchedPairPaperInstance(t *testing.T) {
	ok, err := matchedPair(4, 4, 16, 2)
	if err != nil || !ok {
		t.Fatalf("4-ary 4-tree vs 16-ary 2-cube not matched (ok=%v err=%v)", ok, err)
	}
}

func TestMatchedPairImpliesKEqualsN(t *testing.T) {
	// The equations imply k1 = n1 and N = k1^k1: (3,3) vs (3,3) works,
	// (2,2) vs (4,1) works; mismatched pairs fail.
	ok, err := matchedPair(3, 3, 3, 3)
	if err != nil || !ok {
		t.Fatalf("3-ary 3-tree vs 3-ary 3-cube should match: ok=%v err=%v", ok, err)
	}
	ok, err = matchedPair(2, 2, 4, 1)
	if err != nil || !ok {
		t.Fatalf("2-ary 2-tree vs 4-ary 1-cube should match: ok=%v err=%v", ok, err)
	}
	ok, err = matchedPair(4, 2, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("4-ary 2-tree vs 16-ary 2-cube should not match (different node counts)")
	}
	ok, err = matchedPair(4, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("4-ary 3-tree (64 nodes, 48 switches) should not match an equal-node cube")
	}
}

func TestFlitBytes(t *testing.T) {
	tree, cube := paperPair(t)
	if fb, err := FlitBytes(tree); err != nil || fb != 2 {
		t.Fatalf("tree flit = %d bytes (%v), want 2", fb, err)
	}
	if fb, err := FlitBytes(cube); err != nil || fb != 4 {
		t.Fatalf("cube flit = %d bytes (%v), want 4", fb, err)
	}
}

func TestPacketFlits(t *testing.T) {
	tree, cube := paperPair(t)
	if pf, err := PacketFlits(tree); err != nil || pf != 32 {
		t.Fatalf("tree packet = %d flits (%v), want 32", pf, err)
	}
	if pf, err := PacketFlits(cube); err != nil || pf != 16 {
		t.Fatalf("cube packet = %d flits (%v), want 16", pf, err)
	}
}

// TestCapacityNormalization checks the central normalization claim of §5:
// with 2-byte flits on the tree and 4-byte on the cube, both networks
// have the same uniform-traffic capacity bound of 2 bytes/node/cycle.
func TestCapacityNormalization(t *testing.T) {
	tree, cube := paperPair(t)
	tf, err := CapacityFlits(tree)
	if err != nil || tf != 1.0 {
		t.Fatalf("tree capacity %v flits (%v), want 1", tf, err)
	}
	cf, err := CapacityFlits(cube)
	if err != nil || cf != 0.5 {
		t.Fatalf("cube capacity %v flits (%v), want 0.5 (= 2B/N)", cf, err)
	}
	tb, _ := CapacityBytes(tree)
	cb, _ := CapacityBytes(cube)
	if tb != 2.0 || cb != 2.0 {
		t.Fatalf("capacities %v and %v bytes/node/cycle, want both 2", tb, cb)
	}
}

func TestCapacityScalesWithRadix(t *testing.T) {
	// 8/k flits per node per cycle: an 8-ary 3-cube sits exactly at the
	// injection limit of 1 flit/cycle.
	cube, _ := topology.NewCube(8, 3)
	cf, err := CapacityFlits(cube)
	if err != nil || cf != 1.0 {
		t.Fatalf("8-ary 3-cube capacity %v (%v), want 1.0", cf, err)
	}
}

func TestCapacityInjectionBoundLowRadix(t *testing.T) {
	// A binary 8-cube (hypercube) has abundant bisection (8/k = 4); the
	// single injection channel caps the per-node bound at 1 flit/cycle.
	hyper, err := topology.NewCube(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := CapacityFlits(hyper)
	if err != nil || cf != 1.0 {
		t.Fatalf("hypercube capacity %v (%v), want the injection bound 1.0", cf, err)
	}
}

func TestMeshCapacityHalvesTorus(t *testing.T) {
	mesh, err := topology.NewMesh(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := CapacityFlits(mesh)
	if err != nil || cf != 0.25 {
		t.Fatalf("16-ary 2-mesh capacity %v (%v), want 0.25 (half the torus)", cf, err)
	}
	links, err := linkCount(mesh)
	if err != nil || links != 512-32 {
		t.Fatalf("mesh links %d (%v), want 480 (torus minus wrap links)", links, err)
	}
}

// TestPeakBandwidthEqualized checks §5: the tree has twice the links, the
// cube twice the data path, so the aggregate peak bandwidth is the same.
func TestPeakBandwidthEqualized(t *testing.T) {
	tree, cube := paperPair(t)
	tl, err := linkCount(tree)
	if err != nil || tl != 1024 {
		t.Fatalf("tree links %d (%v), want n*k^n = 1024", tl, err)
	}
	cl, err := linkCount(cube)
	if err != nil || cl != 512 {
		t.Fatalf("cube links %d (%v), want 512", cl, err)
	}
	tp, cp := peakBandwidthBytes(t, tree), peakBandwidthBytes(t, cube)
	if tp != cp {
		t.Fatalf("peak bandwidths differ: tree %d, cube %d", tp, cp)
	}
}

// TestPinCountEqualized checks the pin-count argument: 8 links x 2 bytes
// on the tree switch equals 4 links x 4 bytes on the cube router.
func TestPinCountEqualized(t *testing.T) {
	tree, cube := paperPair(t)
	tw, cw := pinEquivalentWidth(tree), pinEquivalentWidth(cube)
	if tw != cw || tw != 16 {
		t.Fatalf("pin-equivalent widths tree=%d cube=%d, want both 16", tw, cw)
	}
}

// TestPacketRateEqualAcrossFamilies: at the same fraction of capacity the
// two networks generate the same packets/node/cycle (x/32 for 64-byte
// packets), which is what makes the normalized x axes comparable.
func TestPacketRateEqualAcrossFamilies(t *testing.T) {
	tree, cube := paperPair(t)
	rate := func(top topology.Topology, load float64) (float64, error) {
		pf, err := PacketFlits(top)
		if err != nil {
			t.Fatal(err)
		}
		return PacketRate(top, load, pf)
	}
	for _, load := range []float64{0.1, 0.5, 1.0} {
		tr, err := rate(tree, load)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := rate(cube, load)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tr-cr) > 1e-15 {
			t.Fatalf("load %v: tree rate %v != cube rate %v", load, tr, cr)
		}
		if want := load / 32; math.Abs(tr-want) > 1e-15 {
			t.Fatalf("load %v: rate %v, want %v", load, tr, want)
		}
	}
	if _, err := rate(tree, -0.1); err == nil {
		t.Fatal("negative load accepted")
	}
}

// TestThroughputConversion reproduces the scale of Figure 7: at 100% of
// capacity the cube moves 4096 bits/cycle; with Duato's 7.8 ns clock
// that is ~525 bits/ns, so the measured 80% saturation lands near the
// paper's 440 bits/ns.
func TestThroughputConversion(t *testing.T) {
	_, cube := paperPair(t)
	full, err := ThroughputBitsPerNS(cube, 1.0, 7.8019550008653875)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-525.0) > 0.5 {
		t.Fatalf("full-capacity throughput %v bits/ns, want ~525", full)
	}
	at80 := 0.80 * full
	if math.Abs(at80-420) > 1 {
		t.Fatalf("80%% saturation = %v bits/ns, want ~420 (paper: 440)", at80)
	}
}

func TestLatencyNS(t *testing.T) {
	if got := LatencyNS(100, 6.34); math.Abs(got-634) > 1e-9 {
		t.Fatalf("LatencyNS = %v, want 634", got)
	}
}

func TestUnknownTopologyErrors(t *testing.T) {
	var unknown topology.Topology
	type fake struct{ topology.Topology }
	unknown = fake{}
	if _, err := FlitBytes(unknown); err == nil {
		t.Error("FlitBytes accepted unknown family")
	}
	if _, err := CapacityFlits(unknown); err == nil {
		t.Error("CapacityFlits accepted unknown family")
	}
	if _, err := linkCount(unknown); err == nil {
		t.Error("linkCount accepted unknown family")
	}
}

func TestPacketBytesConstant(t *testing.T) {
	if PacketBytes != 64 {
		t.Fatalf("PacketBytes = %d, want the paper's 64", PacketBytes)
	}
}

// peakBandwidthBytes is the aggregate peak bandwidth in bytes per
// cycle: links x flit width x two directions.
func peakBandwidthBytes(t *testing.T, top topology.Topology) int {
	t.Helper()
	links, err := linkCount(top)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := FlitBytes(top)
	if err != nil {
		t.Fatal(err)
	}
	return links * fb * 2
}

// pinEquivalentWidth is arity x flit width of a router — the pin count
// proxy the paper equalizes (node connections excluded).
func pinEquivalentWidth(top topology.Topology) int {
	if tree, ok := top.(*topology.Tree); ok {
		return 2 * tree.K * TreeFlitBytes
	}
	return 2 * top.(*topology.Cube).N * CubeFlitBytes
}

// linkCount returns the number of bidirectional links of the topology as
// the paper counts them — n*k^n for both families: the cube has n
// channels per node; the tree has k^n node links plus (n-1)*k^n
// inter-switch links, the idle external connections at the root excluded.
// The quaternary fat-tree therefore has twice as many links as the
// bidimensional cube of equal size, which the halved data path
// compensates.
func linkCount(top topology.Topology) (int, error) {
	switch t := top.(type) {
	case *topology.Tree:
		return t.N * t.Nodes(), nil
	case *topology.Cube:
		links := t.N * t.Nodes()
		if !t.Wrap {
			// The mesh lacks the k^(n-1) wrap-around links per dimension.
			links -= t.N * t.Nodes() / t.K
		}
		return links, nil
	default:
		return 0, fmt.Errorf("phys: unknown topology family %T", top)
	}
}

// matchedPair reports whether tree parameters (k1, n1) and cube
// parameters (k2, n2) satisfy the paper's fairness conditions: the same
// number of processing nodes (k1^n1 == k2^n2) and the same number of
// routing chips (n1*k1^(n1-1) == k2^n2). The two equations imply k1 == n1
// and N = k1^k1; the paper's instance is the 4-ary 4-tree against the
// 16-ary 2-cube.
func matchedPair(k1, n1, k2, n2 int) (bool, error) {
	treeNodes, err := topology.Pow(k1, n1)
	if err != nil {
		return false, err
	}
	cubeNodes, err := topology.Pow(k2, n2)
	if err != nil {
		return false, err
	}
	treeRouters := n1 * treeNodes / k1
	return treeNodes == cubeNodes && treeRouters == cubeNodes, nil
}
