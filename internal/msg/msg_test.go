package msg

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// sampleLeaves is one value of every kind but Batch, in Type order, every
// field set to its own non-zero value so that two fields swapped in the
// codec cannot cancel out.
func sampleLeaves() []Message {
	return []Message{
		&ViewerState{
			Viewer: 7, Instance: 99, Addr: [16]byte{1, 2, 3}, File: 4,
			Block: 1234, Slot: 17, PlaySeq: 55, Due: 1234567890,
			Bitrate: 2_000_000, Mirror: true, Part: 3, OrigDisk: 41, Epoch: 2, Trace: 1,
		},
		&Deschedule{Viewer: 1, Instance: 2, Slot: -1, Created: 42},
		&StartPlay{Viewer: 3, Instance: 4, Addr: [16]byte{9}, File: 5,
			StartBlock: 6, Bitrate: 7, Primary: true, Issued: 8, Trace: 1, Ctl: 2},
		&StartAck{Viewer: 9, Instance: 10, Slot: 11, By: -1},
		&Heartbeat{From: 12, Epoch: 13, Now: 14},
		&ReserveReq{Viewer: 15, Instance: 16, Start: 17, Bitrate: 18, Seq: 19, Trace: 1},
		&ReserveResp{Instance: 20, Seq: 21, OK: true},
		&BlockData{Viewer: 77, Instance: 78, File: 79, Block: 80, PlaySeq: 81,
			Part: 1, Parts: 4, Mirror: true, Bytes: 1 << 18, Payload: []byte("tiger")},
		&ClockSync{EpochUnixNano: 1_700_000_000_000_000_007},
		&Hello{From: 22, Epoch: 23},
		&RejoinRequest{From: 24, Epoch: 25},
		&RejoinReply{From: 26, ForEpoch: 27, States: []ViewerState{
			{Viewer: 28, Instance: 29, File: 30, Block: 31, Slot: 32,
				Due: 33, Bitrate: 34, OrigDisk: 35, Epoch: 36},
			{Viewer: 37, Instance: 38, Slot: 39, Due: 40},
		}},
		&RejoinConfirm{From: 41, Epoch: 42, States: []ViewerState{
			{Viewer: 43, Instance: 44, Slot: 45, Due: 46, OrigDisk: 47},
		}},
		&MoveOrder{Fence: 82, Seq: 83, File: 84, Block: 85, Part: -1, SrcIdx: 2,
			DstCub: 86, DstIdx: 3, Alt: 1, Ctl: 87},
		&MoveData{Fence: 88, Seq: 89, File: 90, Block: 91, Part: 2, DstIdx: 1,
			From: 92, Epoch: 93},
		&MoveCommit{Fence: 94, Seq: 95, From: 96, Epoch: 97},
		&MoveNack{Fence: 98, Seq: 99, From: 100, Reason: NackDiskQuarantined},
		&CubDown{Fence: 48, Down: []NodeID{5, 6}},
		&Park{Viewer: 49, Instance: 50, Slot: -1, Fence: 51,
			File: 2, ResumeBlock: 77, Bitrate: 2_000_000, Ctl: 3},
		&ParkAck{Instance: 52, Fence: 53, By: 54},
		&Resume{Viewer: 55, OldInstance: 56, NewInstance: 57, Fence: 58, Ctl: 3},
		&ScavengeReq{Epoch: 59},
		&ScavengeReply{From: 60, ForEpoch: 61, GovFence: 62,
			States: []ViewerState{
				{Viewer: 63, Instance: 64, File: 65, Block: 66, Slot: 67,
					Due: 68, Bitrate: 69, Epoch: 70},
			},
			Parked: []ScavengedPark{
				{Viewer: 71, Instance: 72, File: 73, ResumeBlock: 74,
					Bitrate: 75, Fence: 76},
			}},
	}
}

// sampleMessages is one value of every kind: the leaves and a Batch of
// several of them (a Batch may not hold a Batch).
func sampleMessages() []Message {
	leaves := sampleLeaves()
	return append(leaves, &Batch{Msgs: []Message{leaves[4], leaves[0], leaves[1]}})
}

func TestRoundTripAll(t *testing.T) {
	for _, m := range sampleMessages() {
		b := Encode(m)
		if len(b) != m.Size() {
			t.Errorf("%v: encoded %d bytes, Size() says %d", m.Type(), len(b), m.Size())
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n in: %+v\nout: %+v", m.Type(), m, got)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{Msgs: sampleLeaves()}
	enc := Encode(b)
	if len(enc) != b.Size() {
		t.Errorf("batch encoded %d bytes, Size() says %d", len(enc), b.Size())
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	gb, ok := got.(*Batch)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if !reflect.DeepEqual(b.Msgs, gb.Msgs) {
		t.Error("batch contents mismatch")
	}
}

// TestNestedBatch: a batch inside a batch is refused. No sender builds
// one and Cub.Deliver unwraps a single level, so accepting it bought
// nothing — and decoding it recursed once per nesting level.
func TestNestedBatch(t *testing.T) {
	inner := &Batch{Msgs: []Message{&Heartbeat{From: 1}}}
	outer := &Batch{Msgs: []Message{inner, &Heartbeat{From: 2}}}
	if got, err := Decode(Encode(outer)); err == nil {
		t.Fatalf("nested batch decoded: %+v", got)
	}
}

// TestNestedBatchBoundedStack: a 15 MiB frame (under wire.MaxFrame) of
// nothing but {TBatch, count=1} headers used to recurse three million
// levels deep and end the process with "fatal error: stack overflow",
// which no recover catches. It must be refused at the second header; the
// lowered stack ceiling makes any deep recursion fatal here too.
func TestNestedBatchBoundedStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	const levels = 3 << 20
	frame := make([]byte, 0, 5*levels)
	for i := 0; i < levels; i++ {
		frame = append(frame, byte(TBatch), 1, 0, 0, 0)
	}
	if m, err := Decode(frame); err == nil {
		t.Fatalf("%d nested batch headers decoded: %v", levels, m.Type())
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty buffer decoded")
	}
	if _, err := Decode([]byte{0xFF, 1, 2}); err == nil {
		t.Error("unknown type decoded")
	}
	// Truncations of every sample must error, never panic.
	for _, m := range sampleMessages() {
		b := Encode(m)
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Errorf("%v truncated to %d bytes decoded successfully", m.Type(), cut)
			}
		}
		// Trailing garbage must also error.
		if _, err := Decode(append(append([]byte{}, b...), 0)); err == nil {
			t.Errorf("%v with trailing byte decoded", m.Type())
		}
	}
}

func TestConsumeSequence(t *testing.T) {
	var buf []byte
	msgs := sampleMessages()
	for _, m := range msgs {
		buf = AppendEncode(buf, m)
	}
	rest := buf
	for i := 0; len(rest) > 0; i++ {
		m, r, err := Consume(rest, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, msgs[i]) {
			t.Fatalf("message %d mismatch", i)
		}
		rest = r
	}
}

func TestViewerStateSizeIsPaperScale(t *testing.T) {
	// §3.3 sizes the control messages at about 100 bytes.
	s := (&ViewerState{}).Size()
	if s < 60 || s > 140 {
		t.Fatalf("viewer state is %d bytes; the paper's analysis assumes ~100", s)
	}
}

func TestQuickViewerStateRoundTrip(t *testing.T) {
	f := func(v ViewerState) bool {
		got, err := Decode(Encode(&v))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(&v, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeIDString(t *testing.T) {
	if Controller.String() != "controller" {
		t.Error(Controller.String())
	}
	if NodeID(3).String() != "cub3" {
		t.Error(NodeID(3).String())
	}
}

func TestTypeString(t *testing.T) {
	for _, m := range sampleMessages() {
		if bytes.Contains([]byte(m.Type().String()), []byte("Type(")) {
			t.Errorf("missing name for type %d", m.Type())
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Error("unknown type should format numerically")
	}
}

// TestEveryTypeInTable: adding a kind means a table row and a sample, and
// this is what fails when either is missing.
func TestEveryTypeInTable(t *testing.T) {
	sampled := map[Type]bool{}
	for _, m := range sampleMessages() {
		sampled[m.Type()] = true
	}
	for k := Type(1); k < numTypes; k++ {
		e := types[k]
		if e.name == "" || e.new == nil {
			t.Errorf("type %d has no row in types", k)
			continue
		}
		zero := e.new()
		if zero.Type() != k {
			t.Errorf("%v: constructor builds a %v", k, zero.Type())
		}
		if !sampled[k] {
			t.Errorf("%v: no value in sampleMessages()", k)
		}
		if enc := Encode(zero); fixed[k] != len(enc) || zero.Size() != len(enc) {
			t.Errorf("%v: fixed %d, Size() %d, empty encoding is %d bytes", k, fixed[k], zero.Size(), len(enc))
		}
	}
}

// TestCodecAllocBudget is the allocation budget of the codec hot path:
// encoding a ViewerState into a recycled buffer must be allocation-free,
// and decoding one must allocate only the message value itself.
func TestCodecAllocBudget(t *testing.T) {
	vs := &ViewerState{Viewer: 7, Instance: 99, File: 4, Block: 1234,
		Slot: 17, PlaySeq: 55, Due: 1234567890, Bitrate: 2_000_000, Epoch: 3}
	buf := make([]byte, 0, vs.Size())
	if a := testing.AllocsPerRun(200, func() {
		buf = AppendEncode(buf[:0], vs)
	}); a != 0 {
		t.Errorf("AppendEncode of ViewerState allocated %.1f/op, want 0", a)
	}
	if len(buf) != vs.Size() {
		t.Fatalf("encoded %d bytes, Size says %d", len(buf), vs.Size())
	}
	enc := Encode(vs)
	if a := testing.AllocsPerRun(200, func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Errorf("Decode of ViewerState allocated %.1f/op, want <= 1 (the message value)", a)
	}
}
