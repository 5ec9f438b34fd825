// Package msg defines the control messages exchanged by Tiger nodes and a
// compact binary codec for them.
//
// The same encoding is used on the real TCP transport (internal/wire) and
// for byte-accurate control-traffic accounting in the simulator: the
// paper's Figures 8 and 9 plot control bytes per second, so message sizes
// must be faithful (§3.3 assumes ~100-byte viewer states).
package msg

import (
	"encoding/binary"
	"fmt"
)

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
)

func (t Type) String() string {
	switch t {
	case TViewerState:
		return "ViewerState"
	case TDeschedule:
		return "Deschedule"
	case TStartPlay:
		return "StartPlay"
	case TStartAck:
		return "StartAck"
	case THeartbeat:
		return "Heartbeat"
	case TReserveReq:
		return "ReserveReq"
	case TReserveResp:
		return "ReserveResp"
	case TBatch:
		return "Batch"
	case TBlockData:
		return "BlockData"
	case TClockSync:
		return "ClockSync"
	case THello:
		return "Hello"
	case TRejoinRequest:
		return "RejoinRequest"
	case TRejoinReply:
		return "RejoinReply"
	case TRejoinConfirm:
		return "RejoinConfirm"
	case TMoveOrder:
		return "MoveOrder"
	case TMoveData:
		return "MoveData"
	case TMoveCommit:
		return "MoveCommit"
	case TMoveNack:
		return "MoveNack"
	case TCubDown:
		return "CubDown"
	case TPark:
		return "Park"
	case TParkAck:
		return "ParkAck"
	case TResume:
		return "Resume"
	case TScavengeReq:
		return "ScavengeReq"
	case TScavengeReply:
		return "ScavengeReply"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Message is implemented by every Tiger control message.
type Message interface {
	Type() Type
	// Size returns the exact encoded size in bytes, used for traffic
	// accounting without marshalling.
	Size() int
	encode(b []byte) []byte
	decode(b []byte) ([]byte, error)
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

const viewerStateSize = 8 + 8 + 16 + 4 + 4 + 4 + 4 + 8 + 4 + 1 + 1 + 4 + 4 + 1

func (*ViewerState) Type() Type { return TViewerState }
func (*ViewerState) Size() int  { return 1 + viewerStateSize }

// Deschedule asks every cub that sees it to remove the given viewer
// instance from the given slot (§4.1.2). The operation is idempotent and
// harmless if the instance is not in the slot.
type Deschedule struct {
	Viewer   ViewerID
	Instance InstanceID
	Slot     int32
	Created  int64 // ns: when the deschedule was first issued
}

const descheduleSize = 8 + 8 + 4 + 8

func (*Deschedule) Type() Type { return TDeschedule }
func (*Deschedule) Size() int  { return 1 + descheduleSize }

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

const startPlaySize = 8 + 8 + 16 + 4 + 4 + 4 + 1 + 8 + 1 + 4

func (*StartPlay) Type() Type { return TStartPlay }
func (*StartPlay) Size() int  { return 1 + startPlaySize }

// StartAck tells the controller (and through it, the viewer) that the
// instance has been placed in a slot. Used for startup-latency metrics
// and so the redundant queue copy can be dropped.
type StartAck struct {
	Viewer   ViewerID
	Instance InstanceID
	Slot     int32
	By       NodeID
}

const startAckSize = 8 + 8 + 4 + 4

func (*StartAck) Type() Type { return TStartAck }
func (*StartAck) Size() int  { return 1 + startAckSize }

// Heartbeat is the deadman-protocol liveness beacon between cubs (§2.3).
type Heartbeat struct {
	From  NodeID
	Epoch int32
	Now   int64
}

const heartbeatSize = 4 + 4 + 8

func (*Heartbeat) Type() Type { return THeartbeat }
func (*Heartbeat) Size() int  { return 1 + heartbeatSize }

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

const reserveReqSize = 8 + 8 + 8 + 4 + 4 + 1

func (*ReserveReq) Type() Type { return TReserveReq }
func (*ReserveReq) Size() int  { return 1 + reserveReqSize }

// ReserveResp confirms or rejects a tentative network-schedule insertion.
type ReserveResp struct {
	Instance InstanceID
	Seq      int32
	OK       bool
}

const reserveRespSize = 8 + 4 + 1

func (*ReserveResp) Type() Type { return TReserveResp }
func (*ReserveResp) Size() int  { return 1 + reserveRespSize }

// Batch groups several messages into one network send. Cubs use it to
// amortize per-message overhead when forwarding viewer states (§4.1.1:
// "group viewer states together into a single network message").
type Batch struct {
	Msgs []Message
}

func (*Batch) Type() Type { return TBatch }

func (b *Batch) Size() int {
	n := 1 + 4
	for _, m := range b.Msgs {
		n += m.Size()
	}
	return n
}

// --- codec ---

func putU8(b []byte, v uint8) []byte   { return append(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

var errShort = fmt.Errorf("msg: short buffer")
var errNestedBatch = fmt.Errorf("msg: batch inside a batch")

func getU8(b []byte) (uint8, []byte, error) {
	if len(b) < 1 {
		return 0, nil, errShort
	}
	return b[0], b[1:], nil
}
func getU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}
func getU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, errShort
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// getCount reads a peer-claimed element count and refuses it unless the
// bytes that follow can hold that many elements of at least elemSize
// bytes each — before the caller allocates anything for them.
func getCount(b []byte, elemSize int) (int, []byte, error) {
	n, b, err := getU32(b)
	if err != nil {
		return 0, nil, err
	}
	if n > 1<<20 || int(n) > len(b)/elemSize {
		return 0, nil, fmt.Errorf("msg: count %d exceeds the %d bytes that follow", n, len(b))
	}
	return int(n), b, nil
}

func (v *ViewerState) encode(b []byte) []byte {
	b = putU64(b, uint64(v.Viewer))
	b = putU64(b, uint64(v.Instance))
	b = append(b, v.Addr[:]...)
	b = putU32(b, uint32(v.File))
	b = putU32(b, uint32(v.Block))
	b = putU32(b, uint32(v.Slot))
	b = putU32(b, uint32(v.PlaySeq))
	b = putU64(b, uint64(v.Due))
	b = putU32(b, uint32(v.Bitrate))
	b = putBool(b, v.Mirror)
	b = putU8(b, uint8(v.Part))
	b = putU32(b, uint32(v.OrigDisk))
	b = putU32(b, uint32(v.Epoch))
	b = putU8(b, v.Trace)
	return b
}

func (v *ViewerState) decode(b []byte) ([]byte, error) {
	if len(b) < viewerStateSize {
		return nil, errShort
	}
	var u64 uint64
	var u32 uint32
	var u8 uint8
	var err error
	if u64, b, err = getU64(b); err != nil {
		return nil, err
	}
	v.Viewer = ViewerID(u64)
	if u64, b, err = getU64(b); err != nil {
		return nil, err
	}
	v.Instance = InstanceID(u64)
	copy(v.Addr[:], b[:16])
	b = b[16:]
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.File = FileID(int32(u32))
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.Block = int32(u32)
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.Slot = int32(u32)
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.PlaySeq = int32(u32)
	if u64, b, err = getU64(b); err != nil {
		return nil, err
	}
	v.Due = int64(u64)
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.Bitrate = int32(u32)
	if u8, b, err = getU8(b); err != nil {
		return nil, err
	}
	v.Mirror = u8 != 0
	if u8, b, err = getU8(b); err != nil {
		return nil, err
	}
	v.Part = int8(u8)
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.OrigDisk = int32(u32)
	if u32, b, err = getU32(b); err != nil {
		return nil, err
	}
	v.Epoch = int32(u32)
	if u8, b, err = getU8(b); err != nil {
		return nil, err
	}
	v.Trace = u8
	return b, nil
}

func (d *Deschedule) encode(b []byte) []byte {
	b = putU64(b, uint64(d.Viewer))
	b = putU64(b, uint64(d.Instance))
	b = putU32(b, uint32(d.Slot))
	b = putU64(b, uint64(d.Created))
	return b
}

func (d *Deschedule) decode(b []byte) ([]byte, error) {
	if len(b) < descheduleSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	d.Viewer = ViewerID(u64)
	u64, b, _ = getU64(b)
	d.Instance = InstanceID(u64)
	u32, b, _ := getU32(b)
	d.Slot = int32(u32)
	u64, b, _ = getU64(b)
	d.Created = int64(u64)
	return b, nil
}

func (s *StartPlay) encode(b []byte) []byte {
	b = putU64(b, uint64(s.Viewer))
	b = putU64(b, uint64(s.Instance))
	b = append(b, s.Addr[:]...)
	b = putU32(b, uint32(s.File))
	b = putU32(b, uint32(s.StartBlock))
	b = putU32(b, uint32(s.Bitrate))
	b = putBool(b, s.Primary)
	b = putU64(b, uint64(s.Issued))
	b = putU8(b, s.Trace)
	b = putU32(b, uint32(s.Ctl))
	return b
}

func (s *StartPlay) decode(b []byte) ([]byte, error) {
	if len(b) < startPlaySize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	s.Viewer = ViewerID(u64)
	u64, b, _ = getU64(b)
	s.Instance = InstanceID(u64)
	copy(s.Addr[:], b[:16])
	b = b[16:]
	u32, b, _ := getU32(b)
	s.File = FileID(int32(u32))
	u32, b, _ = getU32(b)
	s.StartBlock = int32(u32)
	u32, b, _ = getU32(b)
	s.Bitrate = int32(u32)
	u8, b, _ := getU8(b)
	s.Primary = u8 != 0
	u64, b, _ = getU64(b)
	s.Issued = int64(u64)
	u8, b, _ = getU8(b)
	s.Trace = u8
	u32, b, _ = getU32(b)
	s.Ctl = int32(u32)
	return b, nil
}

func (a *StartAck) encode(b []byte) []byte {
	b = putU64(b, uint64(a.Viewer))
	b = putU64(b, uint64(a.Instance))
	b = putU32(b, uint32(a.Slot))
	b = putU32(b, uint32(a.By))
	return b
}

func (a *StartAck) decode(b []byte) ([]byte, error) {
	if len(b) < startAckSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	a.Viewer = ViewerID(u64)
	u64, b, _ = getU64(b)
	a.Instance = InstanceID(u64)
	u32, b, _ := getU32(b)
	a.Slot = int32(u32)
	u32, b, _ = getU32(b)
	a.By = NodeID(int32(u32))
	return b, nil
}

func (h *Heartbeat) encode(b []byte) []byte {
	b = putU32(b, uint32(h.From))
	b = putU32(b, uint32(h.Epoch))
	b = putU64(b, uint64(h.Now))
	return b
}

func (h *Heartbeat) decode(b []byte) ([]byte, error) {
	if len(b) < heartbeatSize {
		return nil, errShort
	}
	u32, b, _ := getU32(b)
	h.From = NodeID(int32(u32))
	u32, b, _ = getU32(b)
	h.Epoch = int32(u32)
	u64, b, _ := getU64(b)
	h.Now = int64(u64)
	return b, nil
}

func (r *ReserveReq) encode(b []byte) []byte {
	b = putU64(b, uint64(r.Viewer))
	b = putU64(b, uint64(r.Instance))
	b = putU64(b, uint64(r.Start))
	b = putU32(b, uint32(r.Bitrate))
	b = putU32(b, uint32(r.Seq))
	b = append(b, r.Trace)
	return b
}

func (r *ReserveReq) decode(b []byte) ([]byte, error) {
	if len(b) < reserveReqSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	r.Viewer = ViewerID(u64)
	u64, b, _ = getU64(b)
	r.Instance = InstanceID(u64)
	u64, b, _ = getU64(b)
	r.Start = int64(u64)
	u32, b, _ := getU32(b)
	r.Bitrate = int32(u32)
	u32, b, _ = getU32(b)
	r.Seq = int32(u32)
	r.Trace = b[0]
	b = b[1:]
	return b, nil
}

func (r *ReserveResp) encode(b []byte) []byte {
	b = putU64(b, uint64(r.Instance))
	b = putU32(b, uint32(r.Seq))
	b = putBool(b, r.OK)
	return b
}

func (r *ReserveResp) decode(b []byte) ([]byte, error) {
	if len(b) < reserveRespSize {
		return nil, errShort
	}
	u64, b, _ := getU64(b)
	r.Instance = InstanceID(u64)
	u32, b, _ := getU32(b)
	r.Seq = int32(u32)
	u8, b, _ := getU8(b)
	r.OK = u8 != 0
	return b, nil
}

func (bt *Batch) encode(b []byte) []byte {
	b = putU32(b, uint32(len(bt.Msgs)))
	for _, m := range bt.Msgs {
		b = Append(b, m)
	}
	return b
}

func (bt *Batch) decode(b []byte) ([]byte, error) {
	n, b, err := getCount(b, 1) // a message is at least its type tag
	if err != nil {
		return nil, err
	}
	bt.Msgs = make([]Message, 0, n)
	for i := 0; i < n; i++ {
		// No sender nests batches and a cub unwraps exactly one level;
		// decoding one would recurse once per five input bytes, as deep
		// as a frame is long.
		if len(b) > 0 && Type(b[0]) == TBatch {
			return nil, errNestedBatch
		}
		var m Message
		m, b, err = Consume(b)
		if err != nil {
			return nil, err
		}
		bt.Msgs = append(bt.Msgs, m)
	}
	return b, nil
}

// Append encodes m (type tag followed by body) onto b and returns the
// extended slice.
func Append(b []byte, m Message) []byte {
	b = append(b, byte(m.Type()))
	return m.encode(b)
}

// AppendEncode encodes m into a caller-supplied buffer, appending the
// full encoding (type tag plus body) and returning the extended slice.
// It is the zero-allocation counterpart of Encode: pass a recycled
// buffer truncated to length zero and no garbage is produced once the
// buffer has grown to the working-set frame size. The hot transport
// paths (wire.Conn, the cubs' batch forwarding) route through it.
func AppendEncode(b []byte, m Message) []byte {
	return Append(b, m)
}

// Encode returns the full encoding of m in a freshly allocated buffer.
// Steady-state paths should prefer AppendEncode with a reused buffer.
func Encode(m Message) []byte {
	return AppendEncode(make([]byte, 0, m.Size()), m)
}

// Consume decodes one message from the front of b, returning the message
// and the remaining bytes.
func Consume(b []byte) (Message, []byte, error) {
	t, b, err := getU8(b)
	if err != nil {
		return nil, nil, err
	}
	var m Message
	switch Type(t) {
	case TViewerState:
		m = &ViewerState{}
	case TDeschedule:
		m = &Deschedule{}
	case TStartPlay:
		m = &StartPlay{}
	case TStartAck:
		m = &StartAck{}
	case THeartbeat:
		m = &Heartbeat{}
	case TReserveReq:
		m = &ReserveReq{}
	case TReserveResp:
		m = &ReserveResp{}
	case TBatch:
		m = &Batch{}
	case TBlockData:
		m = &BlockData{}
	case TClockSync:
		m = &ClockSync{}
	case THello:
		m = &Hello{}
	case TRejoinRequest:
		m = &RejoinRequest{}
	case TRejoinReply:
		m = &RejoinReply{}
	case TRejoinConfirm:
		m = &RejoinConfirm{}
	case TMoveOrder:
		m = &MoveOrder{}
	case TMoveData:
		m = &MoveData{}
	case TMoveCommit:
		m = &MoveCommit{}
	case TMoveNack:
		m = &MoveNack{}
	case TCubDown:
		m = &CubDown{}
	case TPark:
		m = &Park{}
	case TParkAck:
		m = &ParkAck{}
	case TResume:
		m = &Resume{}
	case TScavengeReq:
		m = &ScavengeReq{}
	case TScavengeReply:
		m = &ScavengeReply{}
	default:
		return nil, nil, fmt.Errorf("msg: unknown message type %d", t)
	}
	rest, err := m.decode(b)
	if err != nil {
		return nil, nil, err
	}
	return m, rest, nil
}

// Decode decodes exactly one message from b, failing on trailing bytes.
func Decode(b []byte) (Message, error) {
	m, rest, err := Consume(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("msg: %d trailing bytes after %v", len(rest), m.Type())
	}
	return m, nil
}
