package wormhole

// fifo is a fixed-capacity ring buffer of flits — the buffer space of one
// virtual-channel lane (4 flits in the paper's experiments). The flits
// live in the fabric's arena (Fabric.arena); the fifo keeps only its
// first arena slot and three ring counters, so a lane's bookkeeping is a
// fraction of a cache line. The ring operations take the arena and never
// allocate. Config.validate bounds BufDepth so the uint16 counters cannot
// wrap.
//
//smartlint:shardowned
type fifo struct {
	off   int32  // arena index of the ring's first slot
	head  uint16 // ring index of the oldest flit
	n     uint16 // buffered flits
	depth uint16 // ring capacity
}

func (q *fifo) cap() int   { return int(q.depth) }
func (q *fifo) len() int   { return int(q.n) }
func (q *fifo) full() bool { return q.n == q.depth }

// front returns a pointer to the oldest flit; it must not be called on an
// empty fifo.
//
//smartlint:hotpath
func (q *fifo) front(a []Flit) *Flit { return &a[q.off+int32(q.head)] }

//smartlint:hotpath
func (q *fifo) push(a []Flit, fl Flit) {
	if q.full() {
		panic("wormhole: push into full lane buffer")
	}
	i := int(q.head) + int(q.n)
	if i >= int(q.depth) {
		i -= int(q.depth)
	}
	a[int(q.off)+i] = fl
	q.n++
}

//smartlint:hotpath
func (q *fifo) pop(a []Flit) Flit {
	if q.n == 0 {
		panic("wormhole: pop from empty lane buffer")
	}
	fl := a[q.off+int32(q.head)]
	q.head++
	if q.head == q.depth {
		q.head = 0
	}
	q.n--
	return fl
}

// at returns the i-th buffered flit counted from the front.
func (q *fifo) at(a []Flit, i int) *Flit {
	if i < 0 || i >= int(q.n) {
		panic("wormhole: fifo index out of range")
	}
	i += int(q.head)
	if i >= int(q.depth) {
		i -= int(q.depth)
	}
	return &a[int(q.off)+i]
}

// inLane is the input buffer of one virtual channel: flits arriving from
// the upstream link wait here for the crossbar. bound identifies the
// output lane the current packet was allocated (noRef while the header is
// still unrouted or the lane is empty). The router/port/lane coordinates
// are fixed at construction so the crossbar and routing stages, which
// reach lanes through flat-index work lists, can recover them without a
// reverse lookup.
//
//smartlint:shardowned
type inLane struct {
	fifo
	bound  laneRef
	router int32
	port   int16
	lane   int16
}

// holdsWholePacket reports whether the lane buffers every flit of the
// packet whose header sits at the front — the store-and-forward gate.
func (l *inLane) holdsWholePacket(a []Flit, pk *PacketInfo) bool {
	if l.len() < int(pk.Flits) {
		return false
	}
	tail := l.at(a, int(pk.Flits)-1)
	return tail.Kind.IsTail() && tail.Packet == l.front(a).Packet
}

// outLane is the output buffer of one virtual channel. credits counts the
// free positions in the matching input lane across the link, initialized
// to the buffer depth, decremented when the link transmits a flit and
// incremented when the ack line reports the remote lane forwarded one.
// boundIn identifies the input lane currently switched onto this lane
// through the crossbar.
//
//smartlint:shardowned
type outLane struct {
	fifo
	credits int16
	boundIn laneRef
}

// free reports whether a header may be allocated to this output lane: the
// paper requires a lane that is "neither full nor bound to another input
// lane".
func (o *outLane) free() bool { return o.boundIn == noRef && !o.full() }
