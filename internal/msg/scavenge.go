package msg

// The controller-failover scavenge protocol. The controller carries no
// durable state the cubs do not already hold: the distributed schedule
// *is* the system of record. A restarted (or standby) controller
// incarnation therefore rebuilds its plays map, per-generation load,
// parked-stream set and in-flight restripe bookkeeping by broadcasting
// a ScavengeReq stamped with its new controller epoch and folding each
// cub's inventory reply. Replies echo the epoch so a reply raced to a
// still-newer incarnation is discarded, and the request itself raises
// every cub's controller-epoch high-water mark, fencing any order the
// dead incarnation still has in flight.
//
//	ScavengeReq    new controller incarnation → every cub
//	ScavengeReply  cub → controller (active plays + parked tickets)

// ScavengeReq announces a new controller incarnation and asks the cub
// for its schedule inventory.
type ScavengeReq struct {
	Epoch int32 // the new controller epoch
}

const scavengeReqSize = 4

func (*ScavengeReq) Type() Type { return TScavengeReq }
func (*ScavengeReq) Size() int  { return 1 + scavengeReqSize }

func (s *ScavengeReq) encode(b []byte) []byte {
	return putU32(b, uint32(s.Epoch))
}

func (s *ScavengeReq) decode(b []byte) ([]byte, error) {
	if len(b) < scavengeReqSize {
		return nil, errShort
	}
	u32, b, _ := getU32(b)
	s.Epoch = int32(u32)
	return b, nil
}

// ScavengedPark is one parked stream's re-admission ticket as retained
// by a cub: everything the governor needs to resume the viewer at its
// delivered watermark. Cubs hold these from the Park broadcast until
// the matching Resume arrives, precisely so a controller takeover can
// recover them.
type ScavengedPark struct {
	Viewer      ViewerID
	Instance    InstanceID // the parked (old) instance
	File        FileID
	ResumeBlock int32
	Bitrate     int32
	Fence       int32 // governor fence the park was issued under
}

const scavengedParkSize = 8 + 8 + 4 + 4 + 4 + 4

// ScavengeReply is one cub's inventory: a representative viewer state
// per play instance in its window (the furthest-progress state it
// holds), its parked-stream tickets, and the highest governor fence it
// has seen. ForEpoch echoes the requesting incarnation's epoch.
type ScavengeReply struct {
	From     NodeID
	ForEpoch int32
	GovFence int32
	States   []ViewerState
	Parked   []ScavengedPark
}

func (*ScavengeReply) Type() Type { return TScavengeReply }

func (r *ScavengeReply) Size() int {
	return 1 + 4 + 4 + 4 + 4 + len(r.States)*viewerStateSize + 4 + len(r.Parked)*scavengedParkSize
}

func (r *ScavengeReply) encode(b []byte) []byte {
	b = putU32(b, uint32(r.From))
	b = putU32(b, uint32(r.ForEpoch))
	b = putU32(b, uint32(r.GovFence))
	b = encodeStates(b, r.States)
	b = putU32(b, uint32(len(r.Parked)))
	for i := range r.Parked {
		p := &r.Parked[i]
		b = putU64(b, uint64(p.Viewer))
		b = putU64(b, uint64(p.Instance))
		b = putU32(b, uint32(p.File))
		b = putU32(b, uint32(p.ResumeBlock))
		b = putU32(b, uint32(p.Bitrate))
		b = putU32(b, uint32(p.Fence))
	}
	return b
}

func (r *ScavengeReply) decode(b []byte) ([]byte, error) {
	if len(b) < 4+4+4+4 {
		return nil, errShort
	}
	u32, b, _ := getU32(b)
	r.From = NodeID(int32(u32))
	u32, b, _ = getU32(b)
	r.ForEpoch = int32(u32)
	u32, b, _ = getU32(b)
	r.GovFence = int32(u32)
	var err error
	if r.States, b, err = decodeStates(b); err != nil {
		return nil, err
	}
	n, b, err := getCount(b, scavengedParkSize)
	if err != nil {
		return nil, err
	}
	r.Parked = make([]ScavengedPark, n)
	for i := range r.Parked {
		p := &r.Parked[i]
		var u64 uint64
		u64, b, _ = getU64(b)
		p.Viewer = ViewerID(u64)
		u64, b, _ = getU64(b)
		p.Instance = InstanceID(u64)
		u32, b, _ = getU32(b)
		p.File = FileID(int32(u32))
		u32, b, _ = getU32(b)
		p.ResumeBlock = int32(u32)
		u32, b, _ = getU32(b)
		p.Bitrate = int32(u32)
		u32, b, _ = getU32(b)
		p.Fence = int32(u32)
	}
	return b, nil
}
