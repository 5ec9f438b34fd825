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

// FuzzDecode holds every decoder to four properties on arbitrary input:
// it never panics; what it accepts re-encodes to a fixpoint (decoding
// that encoding gives the same message and the same bytes); Size()
// predicts the encoding's length; and the decoded message owns its
// memory — overwriting the input buffer afterwards does not change it.
func FuzzDecode(f *testing.F) {
	seeds := append(sampleMessages(), &Batch{Msgs: sampleLeaves()})
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := Decode(in)
		if err != nil {
			return
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
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: own encoding refused: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, m2) || !bytes.Equal(enc, Encode(m2)) {
			t.Fatalf("%v: decode(encode(m)) is not m:\n in: %+v\nout: %+v", m.Type(), m, m2)
		}
	})
}
