package msg

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// TestDecodeBoundsCountBeforeAllocating feeds each counted decoder a
// short frame whose count field claims 1<<20 elements. The count must be
// refused because the bytes are not there — before the slice it sizes is
// made, so the refusal costs an error value, not megabytes.
func TestDecodeBoundsCountBeforeAllocating(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, 1<<20)
	frame := func(t Type, fixed int, tail ...byte) []byte {
		return append(append(append([]byte{byte(t)}, make([]byte, fixed)...), huge...), tail...)
	}
	for name, b := range map[string][]byte{
		"RejoinReply states":   frame(TRejoinReply, 8),
		"RejoinConfirm states": frame(TRejoinConfirm, 8),
		"Batch msgs":           frame(TBatch, 0, byte(THeartbeat), 0, 0),
		"CubDown down":         frame(TCubDown, 4, 1, 2, 3, 4),
		"ScavengeReply states": frame(TScavengeReply, 12),
		"ScavengeReply parked": frame(TScavengeReply, 12+4),
	} {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if m, err := Decode(b); err == nil {
				t.Fatalf("%s: %d-byte frame claiming 1<<20 elements decoded: %+v", name, len(b), m)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes", name, len(b), per)
		}
	}
}

// FuzzDecode holds every decoder to five properties on arbitrary input:
// it never panics; what it accepts re-encodes to a fixpoint (decoding
// that encoding gives the same message and the same bytes); Size()
// predicts the encoding's length; the decoded message owns its memory —
// overwriting the input buffer afterwards does not change it; and
// decoding into a recycled record gives what a fresh decode gives. The
// recycled record comes from a Pool holding one message of that kind
// with every field set (see stalePool), so a field the walk leaves
// alone, a batch element left over or a payload shared with the input
// shows as a difference.
func FuzzDecode(f *testing.F) {
	seeds := append(sampleMessages(), &Batch{Msgs: sampleLeaves()},
		// Each pooled kind at its zero value, every field unlike the
		// recycled record's.
		&ViewerState{}, &Deschedule{}, &Heartbeat{}, &BlockData{}, &Batch{},
		&Batch{Msgs: []Message{&ViewerState{}, &Deschedule{}, &Heartbeat{}, &BlockData{}}})
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Decode(in)
		if err != nil {
			return
		}
		r, err := stalePool(m.Type()).Decode(in)
		if err != nil {
			t.Fatalf("%v: a recycled record refused what a fresh one took: %v", m.Type(), err)
		}
		enc := Encode(m)
		if m.Size() != len(enc) {
			t.Fatalf("%v: Size() %d, encoded %d bytes", m.Type(), m.Size(), len(enc))
		}
		for i := range in {
			in[i] ^= 0xFF
		}
		if again := Encode(m); !bytes.Equal(enc, again) {
			t.Fatalf("%v aliases its input: encoding changed when the input was overwritten", m.Type())
		}
		if !reflect.DeepEqual(m, r) {
			t.Fatalf("%v: decoded into a recycled record is not the fresh decode:\nfresh: %+v\n pool: %+v", m.Type(), m, r)
		}
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: own encoding refused: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, m2) || !bytes.Equal(enc, Encode(m2)) {
			t.Fatalf("%v: decode(encode(m)) is not m:\n in: %+v\nout: %+v", m.Type(), m, m2)
		}
	})
}

// stalePool returns a Pool whose record of kind t holds a message with
// every field set. A Batch holds a record of each pooled kind, which go
// back to the pool with it, in a longer slice than the seeds have.
func stalePool(t Type) *Pool {
	vs := func() Message {
		return &ViewerState{Viewer: -1, Instance: -2, Addr: [16]byte{0xEE, 0xEE}, File: -3, Block: -4,
			Slot: -5, PlaySeq: -6, Due: -7, Bitrate: -8, Mirror: true, Part: -9, OrigDisk: -10, Epoch: -11, Trace: 0xEE}
	}
	stale := map[Type]func() Message{
		TViewerState: vs,
		TDeschedule:  func() Message { return &Deschedule{Viewer: -1, Instance: -2, Slot: -3, Created: -4} },
		THeartbeat:   func() Message { return &Heartbeat{From: -1, Epoch: -2, Now: -3} },
		TBlockData: func() Message {
			return &BlockData{Viewer: -1, Instance: -2, File: -3, Block: -4, PlaySeq: -5, Part: -6, Parts: -7,
				Mirror: true, Bytes: -8, Payload: bytes.Repeat([]byte{0xEE}, 64)}
		},
	}
	stale[TBatch] = func() Message {
		b := &Batch{}
		for range 3 {
			for _, k := range []Type{TViewerState, TDeschedule, THeartbeat, TBlockData} {
				b.Msgs = append(b.Msgs, stale[k]())
			}
		}
		return b
	}
	p := new(Pool)
	if fill := stale[t]; fill != nil {
		p.Release(fill())
	}
	return p
}
