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

func (*ScavengeReq) Type() Type { return TScavengeReq }
func (*ScavengeReq) Size() int  { return fixed[TScavengeReq] }

func (s *ScavengeReq) fields(c coder) coder {
	u32(&c, &s.Epoch)
	return c
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

func (p *ScavengedPark) fields(c coder) coder {
	u64(&c, &p.Viewer)
	u64(&c, &p.Instance)
	u32(&c, &p.File)
	u32(&c, &p.ResumeBlock)
	u32(&c, &p.Bitrate)
	u32(&c, &p.Fence)
	return c
}

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

func (*ScavengeReply) Type() Type  { return TScavengeReply }
func (r *ScavengeReply) Size() int { return size(r) }

func (r *ScavengeReply) fields(c coder) coder {
	u32(&c, &r.From)
	u32(&c, &r.ForEpoch)
	u32(&c, &r.GovFence)
	counted(&c, &r.States, (*ViewerState).fields)
	counted(&c, &r.Parked, (*ScavengedPark).fields)
	return c
}
