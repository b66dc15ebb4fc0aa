// Package trace records per-packet routing timelines from a live fabric
// and renders them as human-readable listings — the microscope view of
// the simulator, used for debugging routing disciplines and for
// explaining a single worm's journey hop by hop (the macroscope views are
// internal/metrics and internal/chanstats). The recorder implements
// wormhole.Tracer and can be attached to any fabric.
package trace

import (
	"fmt"
	"strings"

	"smart/internal/order"
	"smart/internal/wormhole"
)

// Event is one routing decision in a packet's life.
type Event struct {
	Cycle                                    int64
	Router, InPort, InLane, OutPort, OutLane int
}

// Recorder captures the routing timelines of the first Limit packets
// (by id). A zero Limit records everything — use with care on long runs.
type Recorder struct {
	Limit  int
	events map[wormhole.PacketID][]Event
}

// NewRecorder returns a recorder for the first limit packets.
func NewRecorder(limit int) *Recorder {
	return &Recorder{Limit: limit, events: map[wormhole.PacketID][]Event{}}
}

// HeaderRouted implements wormhole.Tracer.
func (r *Recorder) HeaderRouted(cycle int64, pkt wormhole.PacketID, router, inPort, inLane, outPort, outLane int) {
	if r.Limit > 0 && int(pkt) >= r.Limit {
		return
	}
	r.events[pkt] = append(r.events[pkt], Event{
		Cycle: cycle, Router: router,
		InPort: inPort, InLane: inLane, OutPort: outPort, OutLane: outLane,
	})
}

// PacketDelivered implements wormhole.Tracer. Delivery times are read
// from the fabric's packet table (Fabric.Packet), so there is nothing
// to record.
func (r *Recorder) PacketDelivered(cycle int64, pkt wormhole.PacketID) {}

// Packets returns the recorded packet ids in order.
func (r *Recorder) Packets() []wormhole.PacketID {
	return order.Keys(r.events)
}

// Events returns the recorded routing events of one packet.
func (r *Recorder) Events(pkt wormhole.PacketID) []Event { return r.events[pkt] }

// RouterNamer annotates router and port indices with topology-specific
// labels ("switch (2, 14)" / "up 3"); internal/topology's families are
// adapted in namers.go.
type RouterNamer interface {
	RouterName(router int) string
	PortName(router, port int) string
}

// Timeline renders one packet's journey: creation, injection, each hop
// with its dwell time, and delivery.
func (r *Recorder) Timeline(f *wormhole.Fabric, namer RouterNamer, pkt wormhole.PacketID) (string, error) {
	if int(pkt) < 0 || int(pkt) >= len(f.Packets) {
		return "", fmt.Errorf("trace: packet %d does not exist", pkt)
	}
	info := f.Packet(pkt)
	var b strings.Builder
	fmt.Fprintf(&b, "packet %d: node %d -> node %d, %d flits\n", pkt, info.Src, info.Dst, info.Flits)
	fmt.Fprintf(&b, "  c%-6d created\n", info.CreatedAt)
	if info.InjectedAt >= 0 {
		fmt.Fprintf(&b, "  c%-6d header entered the injection lane (queued %d cycles)\n",
			info.InjectedAt, info.InjectedAt-info.CreatedAt)
	}
	events := r.events[pkt]
	for i, ev := range events {
		dwell := ""
		if i > 0 {
			dwell = fmt.Sprintf(" (+%d)", ev.Cycle-events[i-1].Cycle)
		}
		fmt.Fprintf(&b, "  c%-6d routed at %s: in %s lane %d -> out %s lane %d%s\n",
			ev.Cycle, namer.RouterName(ev.Router),
			namer.PortName(ev.Router, ev.InPort), ev.InLane,
			namer.PortName(ev.Router, ev.OutPort), ev.OutLane, dwell)
	}
	if info.HeadAt >= 0 {
		fmt.Fprintf(&b, "  c%-6d header delivered\n", info.HeadAt)
	}
	if info.TailAt >= 0 {
		fmt.Fprintf(&b, "  c%-6d tail delivered (network latency %d cycles, %d switch hops)\n",
			info.TailAt, info.NetworkLatency(), info.Hops)
	} else {
		b.WriteString("  (in flight)\n")
	}
	return b.String(), nil
}
