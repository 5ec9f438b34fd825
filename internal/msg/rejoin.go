package msg

// The rejoin handshake is the anti-entropy view transfer a cold-restarted
// cub runs against its ring neighbours. The paper's deadman protocol
// (§2.3) only covers detecting a death and shifting the mirror load; the
// return path — rebuilding the restarted cub's sliding-window view and
// handing its mirror load back — is this three-message exchange:
//
//	RejoinRequest  restarted cub → each monitored neighbour
//	RejoinReply    neighbour → restarted cub (reconstructed states)
//	RejoinConfirm  restarted cub → neighbour (states it installed; the
//	               neighbour retires the matching mirror entries)

// RejoinRequest announces a restarted cub's new epoch to a ring
// neighbour and asks for the viewer states landing in its window.
type RejoinRequest struct {
	From  NodeID
	Epoch int32
}

const rejoinRequestSize = 4 + 4

func (*RejoinRequest) Type() Type { return TRejoinRequest }
func (*RejoinRequest) Size() int  { return 1 + rejoinRequestSize }

func (r *RejoinRequest) encode(b []byte) []byte {
	b = putU32(b, uint32(r.From))
	b = putU32(b, uint32(r.Epoch))
	return b
}

func (r *RejoinRequest) decode(b []byte) ([]byte, error) {
	if len(b) < rejoinRequestSize {
		return nil, errShort
	}
	u32, b, _ := getU32(b)
	r.From = NodeID(int32(u32))
	u32, b, _ = getU32(b)
	r.Epoch = int32(u32)
	return b, nil
}

// RejoinReply carries the primary viewer states a neighbour reconstructed
// for the requester's disks: re-derived next hops of entries it had
// already forwarded into the dead window, plus primaries rebuilt from the
// mirror pieces it is covering. ForEpoch echoes the requester's epoch so
// a reply to an older incarnation is discarded.
type RejoinReply struct {
	From     NodeID
	ForEpoch int32
	States   []ViewerState
}

func (*RejoinReply) Type() Type { return TRejoinReply }

func (r *RejoinReply) Size() int {
	return 1 + 4 + 4 + 4 + len(r.States)*viewerStateSize
}

func (r *RejoinReply) encode(b []byte) []byte {
	b = putU32(b, uint32(r.From))
	b = putU32(b, uint32(r.ForEpoch))
	b = encodeStates(b, r.States)
	return b
}

func (r *RejoinReply) decode(b []byte) ([]byte, error) {
	if len(b) < 4+4+4 {
		return nil, errShort
	}
	u32, b, _ := getU32(b)
	r.From = NodeID(int32(u32))
	u32, b, _ = getU32(b)
	r.ForEpoch = int32(u32)
	var err error
	r.States, b, err = decodeStates(b)
	return b, err
}

// RejoinConfirm tells a covering cub which transferred states the
// restarted primary now owns, so the cub can retire the matching mirror
// entries (mirror-load handback).
type RejoinConfirm struct {
	From   NodeID
	Epoch  int32
	States []ViewerState
}

func (*RejoinConfirm) Type() Type { return TRejoinConfirm }

func (c *RejoinConfirm) Size() int {
	return 1 + 4 + 4 + 4 + len(c.States)*viewerStateSize
}

func (c *RejoinConfirm) encode(b []byte) []byte {
	b = putU32(b, uint32(c.From))
	b = putU32(b, uint32(c.Epoch))
	b = encodeStates(b, c.States)
	return b
}

func (c *RejoinConfirm) decode(b []byte) ([]byte, error) {
	if len(b) < 4+4+4 {
		return nil, errShort
	}
	u32, b, _ := getU32(b)
	c.From = NodeID(int32(u32))
	u32, b, _ = getU32(b)
	c.Epoch = int32(u32)
	var err error
	c.States, b, err = decodeStates(b)
	return b, err
}

func encodeStates(b []byte, states []ViewerState) []byte {
	b = putU32(b, uint32(len(states)))
	for i := range states {
		b = states[i].encode(b)
	}
	return b
}

func decodeStates(b []byte) ([]ViewerState, []byte, error) {
	n, b, err := getCount(b, viewerStateSize)
	if err != nil {
		return nil, nil, err
	}
	states := make([]ViewerState, n)
	for i := 0; i < n; i++ {
		if b, err = states[i].decode(b); err != nil {
			return nil, nil, err
		}
	}
	return states, b, nil
}
