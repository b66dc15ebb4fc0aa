// Package phys implements the paper's performance-normalization
// methodology (§5): the parameter constraints that make a k-ary n-tree
// and a k-ary n-cube comparable (equal node and router counts), the pin
// count equalization that sets the flit size to two bytes on the tree and
// four on the cube, the resulting equality of peak bandwidth and of the
// theoretical capacity under uniform traffic, and the conversions from
// normalized cycle-domain measurements to the absolute units (bits/ns,
// ns) of the paper's Figure 7.
package phys

import (
	"fmt"

	"smart/internal/topology"
)

// PacketBytes is the paper's packet size.
const PacketBytes = 64

// TreeFlitBytes and CubeFlitBytes are the data-path widths after pin
// count equalization: the tree switch has arity eight and the cube router
// arity four (excluding the node connection), so the cube affords twice
// the data path for the same pins.
const (
	TreeFlitBytes = 2
	CubeFlitBytes = 4
)

// FlitBytes returns the data-path width used on the given topology.
func FlitBytes(top topology.Topology) (int, error) {
	switch top.(type) {
	case *topology.Tree:
		return TreeFlitBytes, nil
	case *topology.Cube:
		return CubeFlitBytes, nil
	default:
		return 0, fmt.Errorf("phys: unknown topology family %T", top)
	}
}

// PacketFlits returns the packet length in flits on the given topology:
// 32 on the tree, 16 on the cube for the paper's 64-byte packets.
func PacketFlits(top topology.Topology) (int, error) {
	fb, err := FlitBytes(top)
	if err != nil {
		return 0, err
	}
	return PacketBytes / fb, nil
}

// CapacityFlits returns the theoretical upper bound on accepted traffic
// under uniform load, in flits per node per cycle.
//
// For the cube (paper footnote 1): 50% of uniform traffic crosses the
// bisection, so each node can inject at most 2B/N where B is the
// bisection bandwidth; with 2k^(n-1) bidirectional links of one flit per
// cycle per direction this evaluates to 8/k flits/node/cycle (0.5 for the
// 16-ary 2-cube).
//
// The tree is not bisection-limited; its bound is the unidirectional
// bandwidth of the link connecting a node to its switch: 1 flit per
// cycle.
func CapacityFlits(top topology.Topology) (float64, error) {
	switch t := top.(type) {
	case *topology.Tree:
		return 1.0, nil
	case *topology.Cube:
		bisection := 2 * t.BisectionLinks() // unidirectional channels, flits/cycle
		bound := 2 * float64(bisection) / float64(t.Nodes())
		// Low radices make the bisection bound exceed what the single
		// injection channel can deliver (8/k > 1 for k < 8 on the torus);
		// the binding constraint is then the injection link, exactly as
		// on the tree. The paper's 16-ary 2-cube is bisection-limited.
		if bound > 1 {
			bound = 1
		}
		return bound, nil
	default:
		return 0, fmt.Errorf("phys: unknown topology family %T", top)
	}
}

// CapacityBytes returns the same bound in bytes per node per cycle; the
// normalization makes it equal (2 bytes/node/cycle) for the paper's two
// networks, which is what lets Figures 5 and 6 share a normalized x axis.
func CapacityBytes(top topology.Topology) (float64, error) {
	flits, err := CapacityFlits(top)
	if err != nil {
		return 0, err
	}
	fb, err := FlitBytes(top)
	if err != nil {
		return 0, err
	}
	return flits * float64(fb), nil
}

// PacketRate converts an offered load expressed as a fraction of capacity
// into the per-node, per-cycle packet creation probability of the
// injection process, for packets packetFlits flits long.
func PacketRate(top topology.Topology, loadFraction float64, packetFlits int) (float64, error) {
	if loadFraction < 0 {
		return 0, fmt.Errorf("phys: negative load fraction %v", loadFraction)
	}
	capFlits, err := CapacityFlits(top)
	if err != nil {
		return 0, err
	}
	return loadFraction * capFlits / float64(packetFlits), nil
}

// ThroughputBitsPerNS converts an accepted load fraction into the
// aggregate network throughput in bits per nanosecond, given the
// configuration's clock period in nanoseconds — the y axis of Figure
// 7 a/c/e/g.
func ThroughputBitsPerNS(top topology.Topology, loadFraction, clockNS float64) (float64, error) {
	capBytes, err := CapacityBytes(top)
	if err != nil {
		return 0, err
	}
	return loadFraction * capBytes * float64(top.Nodes()) * 8 / clockNS, nil
}

// LatencyNS converts a latency in cycles to nanoseconds.
func LatencyNS(cycles, clockNS float64) float64 { return cycles * clockNS }
