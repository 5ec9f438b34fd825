package msg

// BlockData carries one block (or declustered mirror piece) to a viewer
// over the real-time TCP transport. The simulator models the data path
// analytically, but tigerd sends real frames: a descriptor plus a
// truncated test-pattern payload standing in for the video bits (the
// paper's measurement clients verified arrival, not pixels).
type BlockData struct {
	Viewer   ViewerID
	Instance InstanceID
	File     FileID
	Block    int32
	PlaySeq  int32
	Part     int8
	Parts    int8
	Mirror   bool
	Bytes    int64 // the block's true size; Payload may be truncated
	Payload  []byte
}

func (*BlockData) Type() Type  { return TBlockData }
func (b *BlockData) Size() int { return size(b) }

func (b *BlockData) fields(c coder) coder {
	u64(&c, &b.Viewer)
	u64(&c, &b.Instance)
	u32(&c, &b.File)
	u32(&c, &b.Block)
	u32(&c, &b.PlaySeq)
	u8(&c, &b.Part)
	u8(&c, &b.Parts)
	c.flag(&b.Mirror)
	u64(&c, &b.Bytes)
	c.payload(&b.Payload)
	return c
}

// ClockSync distributes the system epoch from the controller — "the
// system clock master" (§2.1) — to cubs joining a real-time deployment.
type ClockSync struct {
	EpochUnixNano int64
}

func (*ClockSync) Type() Type { return TClockSync }
func (*ClockSync) Size() int  { return fixed[TClockSync] }

func (k *ClockSync) fields(c coder) coder {
	u64(&c, &k.EpochUnixNano)
	return c
}

// Hello identifies the sender on a freshly opened transport connection
// and announces its liveness epoch, so a peer learns about a restarted
// incarnation from the very first frame of the new connection.
type Hello struct {
	From  NodeID
	Epoch int32
}

func (*Hello) Type() Type { return THello }
func (*Hello) Size() int  { return fixed[THello] }

func (h *Hello) fields(c coder) coder {
	u32(&c, &h.From)
	u32(&c, &h.Epoch)
	return c
}
