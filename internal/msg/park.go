package msg

// The degradation-governor protocol. When correlated failures exhaust
// mirror coverage (a second death inside a dead cub's decluster span),
// the controller's governor parks the fewest streams whose trajectories
// cross the unservable disks, so every surviving stream keeps a clean
// schedule. All four messages carry the governor's fence — a counter
// bumped on every capacity-loss event — so an ack or a resume from a
// previous degradation episode is discarded rather than double-counted.
//
//	CubDown  controller → every live cub (advisory death notice)
//	Park     controller → serving cub + successor (remove the stream)
//	ParkAck  cub → controller
//	Resume   controller → new primary + successor (re-admitted stream)

// CubDown is the controller's advisory that the listed cubs died at
// once — a breaker trip, not independent deadman timeouts. Receiving
// cubs mark them dead immediately instead of waiting out the deadman
// window, which is what lets mirror takeover start before any viewer
// deadline passes.
type CubDown struct {
	Fence int32
	Down  []NodeID
}

func (*CubDown) Type() Type  { return TCubDown }
func (m *CubDown) Size() int { return size(m) }

func (m *CubDown) fields(c coder) coder {
	u32(&c, &m.Fence)
	counted(&c, &m.Down, nodeID)
	return c
}

func nodeID(n *NodeID, c coder) coder {
	u32(&c, n)
	return c
}

// Park orders the cub currently serving the stream (and, like a
// deschedule, its successor, in case the state already hopped) to
// remove the instance from its schedule. Unlike a deschedule it also
// installs a tombstone for the instance so states still gossiping
// around the ring die on arrival. The File/ResumeBlock/Bitrate fields
// are the viewer's full re-admission ticket: every live cub retains
// them until the matching Resume, so a controller takeover can scavenge
// the parked set instead of losing it with the dead incarnation.
type Park struct {
	Viewer      ViewerID
	Instance    InstanceID
	Slot        int32 // slot the controller believes the stream occupies; <0 if queued
	Fence       int32
	File        FileID
	ResumeBlock int32 // delivered watermark the stream resumes at
	Bitrate     int32
	Ctl         int32 // controller epoch
}

func (*Park) Type() Type { return TPark }
func (*Park) Size() int  { return fixed[TPark] }

func (m *Park) fields(c coder) coder {
	u64(&c, &m.Viewer)
	u64(&c, &m.Instance)
	u32(&c, &m.Slot)
	u32(&c, &m.Fence)
	u32(&c, &m.File)
	u32(&c, &m.ResumeBlock)
	u32(&c, &m.Bitrate)
	u32(&c, &m.Ctl)
	return c
}

// ParkAck confirms a Park. By identifies the acking cub; the governor
// counts each instance parked once however many cubs ack it.
type ParkAck struct {
	Instance InstanceID
	Fence    int32
	By       NodeID
}

func (*ParkAck) Type() Type { return TParkAck }
func (*ParkAck) Size() int  { return fixed[TParkAck] }

func (m *ParkAck) fields(c coder) coder {
	u64(&c, &m.Instance)
	u32(&c, &m.Fence)
	u32(&c, &m.By)
	return c
}

// Resume tells the new primary (and successor) that a parked viewer is
// back under a fresh instance: clear the parked tombstone for the old
// instance so the viewer's history is clean. The stream itself restarts
// through the ordinary StartPlay path; Resume is bookkeeping.
type Resume struct {
	Viewer      ViewerID
	OldInstance InstanceID
	NewInstance InstanceID
	Fence       int32
	Ctl         int32 // controller epoch
}

func (*Resume) Type() Type { return TResume }
func (*Resume) Size() int  { return fixed[TResume] }

func (m *Resume) fields(c coder) coder {
	u64(&c, &m.Viewer)
	u64(&c, &m.OldInstance)
	u64(&c, &m.NewInstance)
	u32(&c, &m.Fence)
	u32(&c, &m.Ctl)
	return c
}
