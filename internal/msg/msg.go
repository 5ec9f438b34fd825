// Package msg defines the control messages exchanged by Tiger nodes and a
// compact binary codec for them.
//
// The same encoding is used on the real TCP transport (internal/wire) and
// for byte-accurate control-traffic accounting in the simulator: the
// paper's Figures 8 and 9 plot control bytes per second, so message sizes
// must be faithful (§3.3 assumes ~100-byte viewer states).
package msg

import "fmt"

// NodeID identifies a machine in a Tiger system. Cubs are numbered
// 0..n-1; the controller is node -1.
type NodeID int32

// Controller is the NodeID of the Tiger controller machine.
const Controller NodeID = -1

func (n NodeID) String() string {
	if n == Controller {
		return "controller"
	}
	return fmt.Sprintf("cub%d", int32(n))
}

// ViewerID identifies a client endpoint (the paper's "address of the
// viewer").
type ViewerID int64

// InstanceID identifies one particular start-play request by a viewer.
// The deschedule semantics of §4.1.2 are per instance: "if this instance
// of viewer is in this schedule slot, remove the viewer".
type InstanceID int64

// FileID names a content file.
type FileID int32

// Type tags a message on the wire.
type Type uint8

const (
	TViewerState Type = iota + 1
	TDeschedule
	TStartPlay
	TStartAck
	THeartbeat
	TReserveReq
	TReserveResp
	TBatch
	TBlockData
	TClockSync
	THello
	TRejoinRequest
	TRejoinReply
	TRejoinConfirm
	TMoveOrder
	TMoveData
	TMoveCommit
	TMoveNack
	TCubDown
	TPark
	TParkAck
	TResume
	TScavengeReq
	TScavengeReply
	numTypes // one past the last kind: sizes the tables below
)

// types is the one table of message kinds: the name Type.String()
// prints and the constructor Consume decodes into.
var types = [numTypes]struct {
	name string
	new  func() Message
}{
	TViewerState:   {"ViewerState", func() Message { return new(ViewerState) }},
	TDeschedule:    {"Deschedule", func() Message { return new(Deschedule) }},
	TStartPlay:     {"StartPlay", func() Message { return new(StartPlay) }},
	TStartAck:      {"StartAck", func() Message { return new(StartAck) }},
	THeartbeat:     {"Heartbeat", func() Message { return new(Heartbeat) }},
	TReserveReq:    {"ReserveReq", func() Message { return new(ReserveReq) }},
	TReserveResp:   {"ReserveResp", func() Message { return new(ReserveResp) }},
	TBatch:         {"Batch", func() Message { return new(Batch) }},
	TBlockData:     {"BlockData", func() Message { return new(BlockData) }},
	TClockSync:     {"ClockSync", func() Message { return new(ClockSync) }},
	THello:         {"Hello", func() Message { return new(Hello) }},
	TRejoinRequest: {"RejoinRequest", func() Message { return new(RejoinRequest) }},
	TRejoinReply:   {"RejoinReply", func() Message { return new(RejoinReply) }},
	TRejoinConfirm: {"RejoinConfirm", func() Message { return new(RejoinConfirm) }},
	TMoveOrder:     {"MoveOrder", func() Message { return new(MoveOrder) }},
	TMoveData:      {"MoveData", func() Message { return new(MoveData) }},
	TMoveCommit:    {"MoveCommit", func() Message { return new(MoveCommit) }},
	TMoveNack:      {"MoveNack", func() Message { return new(MoveNack) }},
	TCubDown:       {"CubDown", func() Message { return new(CubDown) }},
	TPark:          {"Park", func() Message { return new(Park) }},
	TParkAck:       {"ParkAck", func() Message { return new(ParkAck) }},
	TResume:        {"Resume", func() Message { return new(Resume) }},
	TScavengeReq:   {"ScavengeReq", func() Message { return new(ScavengeReq) }},
	TScavengeReply: {"ScavengeReply", func() Message { return new(ScavengeReply) }},
}

// fixed is each kind's encoded size with nothing variable in it, tag
// included: the whole size of a fixed-width message, whose Size() — the
// simulator calls it on every send — is therefore one load.
var fixed [numTypes]int

func init() {
	for t, e := range types {
		if e.new != nil {
			fixed[t] = size(e.new())
		}
	}
}

func (t Type) String() string {
	if t < numTypes && types[t].name != "" {
		return types[t].name
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Message is implemented by every Tiger control message.
type Message interface {
	Type() Type
	// Size returns the exact encoded size in bytes, used for traffic
	// accounting without marshalling.
	Size() int
	// fields names the message's fields once, in wire order (codec.go).
	fields(c coder) coder
}

// ViewerState is the schedule-entry record gossiped around the ring of
// cubs (§4.1.1). It tells the receiving cub to send block Block of file
// File to Viewer when the slot's time arrives.
type ViewerState struct {
	Viewer   ViewerID
	Instance InstanceID
	Addr     [16]byte // viewer network address (opaque bookkeeping)
	File     FileID
	Block    int32 // block index within the file due at the receiving disk
	Slot     int32 // schedule slot number
	PlaySeq  int32 // blocks sent so far in this play request
	Due      int64 // ns: when the receiving disk's send of Block is due
	Bitrate  int32 // bits per second of the stream
	Mirror   bool  // true for mirror viewer states (§4.1.1)
	Part     int8  // mirror piece index, 0..decluster-1
	OrigDisk int32 // for mirror states: the failed disk holding the primary
	Epoch    int32 // liveness epoch under which this state was produced
	Trace    uint8 // causal-trace flags; non-zero marks the block traced
}

func (*ViewerState) Type() Type { return TViewerState }
func (*ViewerState) Size() int  { return fixed[TViewerState] }

func (v *ViewerState) fields(c coder) coder {
	u64(&c, &v.Viewer)
	u64(&c, &v.Instance)
	c.raw(v.Addr[:])
	u32(&c, &v.File)
	u32(&c, &v.Block)
	u32(&c, &v.Slot)
	u32(&c, &v.PlaySeq)
	u64(&c, &v.Due)
	u32(&c, &v.Bitrate)
	c.flag(&v.Mirror)
	u8(&c, &v.Part)
	u32(&c, &v.OrigDisk)
	u32(&c, &v.Epoch)
	u8(&c, &v.Trace)
	return c
}

// Deschedule asks every cub that sees it to remove the given viewer
// instance from the given slot (§4.1.2). The operation is idempotent and
// harmless if the instance is not in the slot.
type Deschedule struct {
	Viewer   ViewerID
	Instance InstanceID
	Slot     int32
	Created  int64 // ns: when the deschedule was first issued
}

func (*Deschedule) Type() Type { return TDeschedule }
func (*Deschedule) Size() int  { return fixed[TDeschedule] }

func (d *Deschedule) fields(c coder) coder {
	u64(&c, &d.Viewer)
	u64(&c, &d.Instance)
	u32(&c, &d.Slot)
	u64(&c, &d.Created)
	return c
}

// StartPlay is sent by the controller to the cub holding the first block
// the viewer wants, and to that cub's successor for redundancy (§4.1.3).
type StartPlay struct {
	Viewer     ViewerID
	Instance   InstanceID
	Addr       [16]byte
	File       FileID
	StartBlock int32
	Bitrate    int32
	Primary    bool  // true at the cub expected to do the insertion
	Issued     int64 // ns: when the controller received the request
	Trace      uint8 // causal-trace flags inherited by every viewer state
	Ctl        int32 // controller epoch; fences orders from a dead incarnation
}

func (*StartPlay) Type() Type { return TStartPlay }
func (*StartPlay) Size() int  { return fixed[TStartPlay] }

func (s *StartPlay) fields(c coder) coder {
	u64(&c, &s.Viewer)
	u64(&c, &s.Instance)
	c.raw(s.Addr[:])
	u32(&c, &s.File)
	u32(&c, &s.StartBlock)
	u32(&c, &s.Bitrate)
	c.flag(&s.Primary)
	u64(&c, &s.Issued)
	u8(&c, &s.Trace)
	u32(&c, &s.Ctl)
	return c
}

// StartAck tells the controller (and through it, the viewer) that the
// instance has been placed in a slot. Used for startup-latency metrics
// and so the redundant queue copy can be dropped.
type StartAck struct {
	Viewer   ViewerID
	Instance InstanceID
	Slot     int32
	By       NodeID
}

func (*StartAck) Type() Type { return TStartAck }
func (*StartAck) Size() int  { return fixed[TStartAck] }

func (a *StartAck) fields(c coder) coder {
	u64(&c, &a.Viewer)
	u64(&c, &a.Instance)
	u32(&c, &a.Slot)
	u32(&c, &a.By)
	return c
}

// Heartbeat is the deadman-protocol liveness beacon between cubs (§2.3).
type Heartbeat struct {
	From  NodeID
	Epoch int32
	Now   int64
}

func (*Heartbeat) Type() Type { return THeartbeat }
func (*Heartbeat) Size() int  { return fixed[THeartbeat] }

func (h *Heartbeat) fields(c coder) coder {
	u32(&c, &h.From)
	u32(&c, &h.Epoch)
	u64(&c, &h.Now)
	return c
}

// ReserveReq asks the successor cub to reserve network-schedule capacity
// for a tentative multiple-bitrate insertion (§4.2).
type ReserveReq struct {
	Viewer   ViewerID
	Instance InstanceID
	Start    int64 // ns: proposed schedule position of the entry
	Bitrate  int32
	Seq      int32
	Trace    uint8 // causal-trace flag; rides the reservation so the successor's hops are traced too
}

func (*ReserveReq) Type() Type { return TReserveReq }
func (*ReserveReq) Size() int  { return fixed[TReserveReq] }

func (r *ReserveReq) fields(c coder) coder {
	u64(&c, &r.Viewer)
	u64(&c, &r.Instance)
	u64(&c, &r.Start)
	u32(&c, &r.Bitrate)
	u32(&c, &r.Seq)
	u8(&c, &r.Trace)
	return c
}

// ReserveResp confirms or rejects a tentative network-schedule insertion.
type ReserveResp struct {
	Instance InstanceID
	Seq      int32
	OK       bool
}

func (*ReserveResp) Type() Type { return TReserveResp }
func (*ReserveResp) Size() int  { return fixed[TReserveResp] }

func (r *ReserveResp) fields(c coder) coder {
	u64(&c, &r.Instance)
	u32(&c, &r.Seq)
	c.flag(&r.OK)
	return c
}

// Batch groups several messages into one network send. Cubs use it to
// amortize per-message overhead when forwarding viewer states (§4.1.1:
// "group viewer states together into a single network message").
type Batch struct {
	Msgs []Message
}

func (*Batch) Type() Type  { return TBatch }
func (b *Batch) Size() int { return size(b) }

func (b *Batch) fields(c coder) coder {
	n := c.count(len(b.Msgs), 1, maxCount) // a message is at least its type tag
	if c.mode == decoding {
		// A recycled batch keeps its slice; Pool.Release emptied it.
		if b.Msgs == nil || cap(b.Msgs) < n {
			b.Msgs = make([]Message, n)
		}
		b.Msgs = b.Msgs[:n]
	}
	for i := range b.Msgs {
		// No sender nests batches and a cub unwraps exactly one level;
		// decoding one would recurse once per five input bytes, as deep
		// as a frame is long.
		if c.mode == decoding && len(c.b) > 0 && Type(c.b[0]) == TBatch {
			c.err = errNestedBatch
		}
		if c.err != nil {
			break
		}
		c.message(&b.Msgs[i])
	}
	return c
}

// AppendEncode appends m's full encoding (type tag, then fields) to b
// and returns the extended slice. It is the zero-allocation counterpart
// of Encode: pass a recycled buffer truncated to length zero and no
// garbage is produced once the buffer has grown to the working-set
// frame size. wire.Conn.Send is the caller on the transport path.
func AppendEncode(b []byte, m Message) []byte {
	return m.fields(coder{mode: encoding, b: append(b, byte(m.Type()))}).b
}

// Encode returns the full encoding of m in a freshly allocated buffer.
// Steady-state paths should prefer AppendEncode with a reused buffer.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, m.Size()), m)
}

// Consume decodes one message from the front of b into a record taken
// from p (see Pool; a nil p gives fresh records), returning the message
// and the remaining bytes.
func Consume(b []byte, p *Pool) (Message, []byte, error) {
	if len(b) < 1 {
		return nil, nil, errShort
	}
	t := Type(b[0])
	if t >= numTypes || types[t].new == nil {
		return nil, nil, fmt.Errorf("msg: unknown message type %d", t)
	}
	m := p.Get(t)
	c := m.fields(coder{mode: decoding, b: b[1:], pool: p})
	if c.err != nil {
		return nil, nil, c.err
	}
	return m, c.b, nil
}

// Decode decodes exactly one message from b into a fresh record, failing
// on trailing bytes.
func Decode(b []byte) (Message, error) { return (*Pool)(nil).Decode(b) }

// Decode is Decode into records taken from p.
func (p *Pool) Decode(b []byte) (Message, error) {
	m, rest, err := Consume(b, p)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("msg: %d trailing bytes after %v", len(rest), m.Type())
	}
	return m, nil
}
