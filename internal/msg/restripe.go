package msg

// The live-restripe move protocol transfers block ownership between cubs
// while both keep serving. It reuses the epoch-fencing discipline of the
// rejoin path: every cub→cub or cub→controller move message carries the
// sender's liveness epoch, so a copy issued before a crash or partition
// is refused by the stale-epoch gate at the receiver and the coordinator
// simply re-orders the move. The exchange is:
//
//	MoveOrder   controller → source cub  (copy this block to DstCub)
//	MoveData    source cub → dest cub    (fenced handoff; bulk modeled
//	                                      at the disk layer, the wire
//	                                      message is header-sized)
//	MoveCommit  dest cub → controller    (block durable at destination;
//	                                      ownership flips in the new view)
//	MoveNack    source cub → controller  (source cannot serve the copy —
//	                                      disk failed or quarantined —
//	                                      re-route from a mirror)

// MoveOrder directs a source cub to copy one block (or one mirror piece,
// Part >= 0) from its local disk SrcIdx to disk DstIdx of cub DstCub.
// Disks are addressed by cub-local index so the order is meaningful to
// both sides regardless of which striping generation numbered them.
// Alt counts re-route attempts: Alt > 0 reads the block's redundant copy
// instead of the one a previous attempt failed on.
type MoveOrder struct {
	Fence  int64 // restripe run identifier
	Seq    int32 // move index within the run
	File   FileID
	Block  int32
	Part   int8 // -1 for the primary copy, else mirror piece index
	SrcIdx int8 // cub-local source disk index
	DstCub NodeID
	DstIdx int8 // cub-local destination disk index
	Alt    uint8
	Ctl    int32 // controller epoch; fences orders from a dead incarnation
}

func (*MoveOrder) Type() Type { return TMoveOrder }
func (*MoveOrder) Size() int  { return fixed[TMoveOrder] }

func (m *MoveOrder) fields(c coder) coder {
	u64(&c, &m.Fence)
	u32(&c, &m.Seq)
	u32(&c, &m.File)
	u32(&c, &m.Block)
	u8(&c, &m.Part)
	u8(&c, &m.SrcIdx)
	u32(&c, &m.DstCub)
	u8(&c, &m.DstIdx)
	u8(&c, &m.Alt)
	u32(&c, &m.Ctl)
	return c
}

// MoveData is the fenced block handoff from source to destination cub.
// Size covers the header only: the block payload itself is modeled as
// disk time at both ends (a copy consumes a read at the source and a
// write at the destination), keeping the control-traffic accounting of
// §3.3 honest — data bytes never rode the control network in Tiger.
type MoveData struct {
	Fence  int64
	Seq    int32
	File   FileID
	Block  int32
	Part   int8
	DstIdx int8 // cub-local destination disk index
	From   NodeID
	Epoch  int32 // source cub's liveness epoch (fencing)
}

func (*MoveData) Type() Type { return TMoveData }
func (*MoveData) Size() int  { return fixed[TMoveData] }

func (m *MoveData) fields(c coder) coder {
	u64(&c, &m.Fence)
	u32(&c, &m.Seq)
	u32(&c, &m.File)
	u32(&c, &m.Block)
	u8(&c, &m.Part)
	u8(&c, &m.DstIdx)
	u32(&c, &m.From)
	u32(&c, &m.Epoch)
	return c
}

// MoveCommit tells the coordinator the destination has the block on
// disk. Ownership of the block in the new striping generation flips on
// receipt; until then the source keeps serving it under the old one.
type MoveCommit struct {
	Fence int64
	Seq   int32
	From  NodeID
	Epoch int32
}

func (*MoveCommit) Type() Type { return TMoveCommit }
func (*MoveCommit) Size() int  { return fixed[TMoveCommit] }

func (m *MoveCommit) fields(c coder) coder {
	u64(&c, &m.Fence)
	u32(&c, &m.Seq)
	u32(&c, &m.From)
	u32(&c, &m.Epoch)
	return c
}

// Reason codes for MoveNack.
const (
	NackDiskFailed      uint8 = 1 // source disk failed or was retired
	NackDiskQuarantined uint8 = 2 // source disk quarantined by gray-failure monitor
	NackReadError       uint8 = 3 // the copy read itself errored
)

// MoveNack reports that the source cub cannot produce the copy; the
// coordinator re-routes the move to the block's redundant copy.
type MoveNack struct {
	Fence  int64
	Seq    int32
	From   NodeID
	Reason uint8
}

func (*MoveNack) Type() Type { return TMoveNack }
func (*MoveNack) Size() int  { return fixed[TMoveNack] }

func (m *MoveNack) fields(c coder) coder {
	u64(&c, &m.Fence)
	u32(&c, &m.Seq)
	u32(&c, &m.From)
	u8(&c, &m.Reason)
	return c
}
