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

func (*RejoinRequest) Type() Type { return TRejoinRequest }
func (*RejoinRequest) Size() int  { return fixed[TRejoinRequest] }

func (r *RejoinRequest) fields(c coder) coder {
	u32(&c, &r.From)
	u32(&c, &r.Epoch)
	return c
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

func (*RejoinReply) Type() Type  { return TRejoinReply }
func (r *RejoinReply) Size() int { return size(r) }

func (r *RejoinReply) fields(c coder) coder {
	u32(&c, &r.From)
	u32(&c, &r.ForEpoch)
	counted(&c, &r.States, (*ViewerState).fields)
	return c
}

// RejoinConfirm tells a covering cub which transferred states the
// restarted primary now owns, so the cub can retire the matching mirror
// entries (mirror-load handback).
type RejoinConfirm struct {
	From   NodeID
	Epoch  int32
	States []ViewerState
}

func (*RejoinConfirm) Type() Type  { return TRejoinConfirm }
func (r *RejoinConfirm) Size() int { return size(r) }

func (r *RejoinConfirm) fields(c coder) coder {
	u32(&c, &r.From)
	u32(&c, &r.Epoch)
	counted(&c, &r.States, (*ViewerState).fields)
	return c
}
