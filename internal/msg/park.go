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

func (*CubDown) Type() Type { return TCubDown }

func (m *CubDown) Size() int { return 1 + 4 + 4 + 4*len(m.Down) }

func (m *CubDown) encode(b []byte) []byte {
	b = putU32(b, uint32(m.Fence))
	b = putU32(b, uint32(len(m.Down)))
	for _, z := range m.Down {
		b = putU32(b, uint32(z))
	}
	return b
}

func (m *CubDown) decode(b []byte) ([]byte, error) {
	u32, b, err := getU32(b)
	if err != nil {
		return nil, err
	}
	m.Fence = int32(u32)
	n, b, err := getCount(b, 4)
	if err != nil {
		return nil, err
	}
	m.Down = make([]NodeID, n)
	for i := range m.Down {
		u32, b, _ = getU32(b)
		m.Down[i] = NodeID(int32(u32))
	}
	return b, nil
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

const parkSize = 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4

func (*Park) Type() Type { return TPark }
func (*Park) Size() int  { return 1 + parkSize }

func (m *Park) encode(b []byte) []byte {
	b = putU64(b, uint64(m.Viewer))
	b = putU64(b, uint64(m.Instance))
	b = putU32(b, uint32(m.Slot))
	b = putU32(b, uint32(m.Fence))
	b = putU32(b, uint32(m.File))
	b = putU32(b, uint32(m.ResumeBlock))
	b = putU32(b, uint32(m.Bitrate))
	b = putU32(b, uint32(m.Ctl))
	return b
}

func (m *Park) decode(b []byte) ([]byte, error) {
	if len(b) < parkSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	m.Viewer = ViewerID(u64)
	u64, b, _ = getU64(b)
	m.Instance = InstanceID(u64)
	u32, b, _ := getU32(b)
	m.Slot = int32(u32)
	u32, b, _ = getU32(b)
	m.Fence = int32(u32)
	u32, b, _ = getU32(b)
	m.File = FileID(int32(u32))
	u32, b, _ = getU32(b)
	m.ResumeBlock = int32(u32)
	u32, b, _ = getU32(b)
	m.Bitrate = int32(u32)
	u32, b, _ = getU32(b)
	m.Ctl = int32(u32)
	return b, nil
}

// ParkAck confirms a Park. By identifies the acking cub; the governor
// counts each instance parked once however many cubs ack it.
type ParkAck struct {
	Instance InstanceID
	Fence    int32
	By       NodeID
}

const parkAckSize = 8 + 4 + 4

func (*ParkAck) Type() Type { return TParkAck }
func (*ParkAck) Size() int  { return 1 + parkAckSize }

func (m *ParkAck) encode(b []byte) []byte {
	b = putU64(b, uint64(m.Instance))
	b = putU32(b, uint32(m.Fence))
	b = putU32(b, uint32(m.By))
	return b
}

func (m *ParkAck) decode(b []byte) ([]byte, error) {
	if len(b) < parkAckSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	m.Instance = InstanceID(u64)
	u32, b, _ := getU32(b)
	m.Fence = int32(u32)
	u32, b, _ = getU32(b)
	m.By = NodeID(int32(u32))
	return b, nil
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

const resumeSize = 8 + 8 + 8 + 4 + 4

func (*Resume) Type() Type { return TResume }
func (*Resume) Size() int  { return 1 + resumeSize }

func (m *Resume) encode(b []byte) []byte {
	b = putU64(b, uint64(m.Viewer))
	b = putU64(b, uint64(m.OldInstance))
	b = putU64(b, uint64(m.NewInstance))
	b = putU32(b, uint32(m.Fence))
	b = putU32(b, uint32(m.Ctl))
	return b
}

func (m *Resume) decode(b []byte) ([]byte, error) {
	if len(b) < resumeSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	m.Viewer = ViewerID(u64)
	u64, b, _ = getU64(b)
	m.OldInstance = InstanceID(u64)
	u64, b, _ = getU64(b)
	m.NewInstance = InstanceID(u64)
	u32, b, _ := getU32(b)
	m.Fence = int32(u32)
	u32, b, _ = getU32(b)
	m.Ctl = int32(u32)
	return b, nil
}
