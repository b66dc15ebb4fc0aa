package wormhole

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestLaneLayout pins the packed sizes of the per-lane hot state. The
// link and crossbar stages are memory-bound on large fabrics, so a field
// that re-bloats these structs must fail here, not as a noisy wall-clock
// regression.
func TestLaneLayout(t *testing.T) {
	if got := unsafe.Sizeof(Flit{}); got != 16 {
		t.Errorf("Flit is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(inLane{}); got > 24 {
		t.Errorf("inLane is %d bytes, want at most 24", got)
	}
	if got := unsafe.Sizeof(outLane{}); got > 16 {
		t.Errorf("outLane is %d bytes, want at most 16", got)
	}
}

func TestFlitKindBits(t *testing.T) {
	if FlitBody.IsHead() || FlitBody.IsTail() {
		t.Fatal("body flit claims head or tail")
	}
	if !FlitHead.IsHead() || FlitHead.IsTail() {
		t.Fatal("head flit bits wrong")
	}
	if FlitTail.IsHead() || !FlitTail.IsTail() {
		t.Fatal("tail flit bits wrong")
	}
	both := FlitHead | FlitTail
	if !both.IsHead() || !both.IsTail() {
		t.Fatal("single-flit packet bits wrong")
	}
}

func TestLaneRefRoundTrip(t *testing.T) {
	check := func(p, l uint8) bool {
		port, lane := int(p)%16, int(l)%(packRadix-1)
		gp, gl := packRef(port, lane).unpack()
		return gp == port && gl == lane
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketInfoAccessors(t *testing.T) {
	p := PacketInfo{InjectedAt: 10, TailAt: -1}
	if p.Delivered() {
		t.Fatal("undelivered packet claims delivery")
	}
	p.TailAt = 55
	if !p.Delivered() {
		t.Fatal("delivered packet not recognized")
	}
	if p.NetworkLatency() != 45 {
		t.Fatalf("latency %d, want 45", p.NetworkLatency())
	}
}

// newFifo returns a lane ring of the given depth and the arena it lives
// in. The ring sits between two guard rings, so a wrong offset or wrap
// lands in a guard slot, which checkGuards reports.
func newFifo(depth int) (fifo, []Flit) {
	return fifo{off: int32(depth), depth: uint16(depth)}, make([]Flit, 3*depth)
}

// checkGuards fails the test if a ring operation wrote outside q's slots.
func checkGuards(t *testing.T, q *fifo, a []Flit) {
	t.Helper()
	for i := range a {
		if (i < int(q.off) || i >= int(q.off)+q.cap()) && a[i] != (Flit{}) {
			t.Fatalf("arena slot %d outside the ring [%d,%d) was written: %+v", i, q.off, int(q.off)+q.cap(), a[i])
		}
	}
}

func TestFifoPushPop(t *testing.T) {
	f, a := newFifo(3)
	if f.cap() != 3 || f.len() != 0 || f.full() {
		t.Fatal("fresh fifo state wrong")
	}
	for i := int16(0); i < 3; i++ {
		f.push(a, Flit{Seq: i + 1})
	}
	if !f.full() {
		t.Fatal("fifo not full after cap pushes")
	}
	for i := int16(0); i < 3; i++ {
		if f.front(a).Seq != i+1 {
			t.Fatalf("front seq %d, want %d", f.front(a).Seq, i+1)
		}
		if got := f.pop(a); got.Seq != i+1 {
			t.Fatalf("pop seq %d, want %d", got.Seq, i+1)
		}
	}
	if f.len() != 0 {
		t.Fatal("fifo not empty after draining")
	}
	checkGuards(t, &f, a)
}

func TestFifoWrapsAround(t *testing.T) {
	f, a := newFifo(2)
	for round := int16(0); round < 10; round++ {
		f.push(a, Flit{Seq: round + 1})
		if got := f.pop(a); got.Seq != round+1 {
			t.Fatalf("round %d: popped %d", round, got.Seq)
		}
	}
	// Keep the ring full across several wraps of head.
	f.push(a, Flit{Seq: 1})
	for seq := int16(2); seq < 10; seq++ {
		f.push(a, Flit{Seq: seq})
		if got := f.pop(a); got.Seq != seq-1 {
			t.Fatalf("full-ring wrap: popped %d, want %d", got.Seq, seq-1)
		}
	}
	checkGuards(t, &f, a)
}

func TestFifoPushFullPanics(t *testing.T) {
	f, a := newFifo(1)
	f.push(a, Flit{})
	defer func() {
		if recover() == nil {
			t.Fatal("push into full fifo did not panic")
		}
	}()
	f.push(a, Flit{})
}

func TestFifoPopEmptyPanics(t *testing.T) {
	f, a := newFifo(1)
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty fifo did not panic")
		}
	}()
	f.pop(a)
}

func TestOutLaneFree(t *testing.T) {
	q, a := newFifo(2)
	o := outLane{fifo: q, credits: 2, boundIn: noRef}
	if !o.free() {
		t.Fatal("fresh lane not free")
	}
	o.boundIn = packRef(1, 0)
	if o.free() {
		t.Fatal("bound lane reported free")
	}
	o.boundIn = noRef
	o.push(a, Flit{})
	o.push(a, Flit{})
	if o.free() {
		t.Fatal("full lane reported free")
	}
}
