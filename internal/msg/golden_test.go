package msg

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestWireGolden pins the wire layout itself: testdata/golden.txt holds
// the encoding of each sampleMessages() value as "name hex", one line
// per kind, written by the codec as it stood before the field walk. A
// round trip cannot see a field moved in both directions at once; this
// can. The file changes only in a PR that says "wire format change" —
// paste the "got" line this test prints for the kind that moved.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, h, ok := strings.Cut(line, " ")
		if !ok || golden[name] != "" {
			t.Fatalf("golden.txt: bad or repeated line %q", line)
		}
		golden[name] = h
	}
	samples := sampleMessages()
	if len(golden) != len(samples) {
		t.Errorf("golden.txt has %d kinds, sampleMessages() %d", len(golden), len(samples))
	}
	for _, m := range samples {
		name := m.Type().String()
		want, err := hex.DecodeString(golden[name])
		if err != nil || len(want) == 0 {
			t.Errorf("%s: no usable golden line (%v)", name, err)
			continue
		}
		if got := Encode(m); !bytes.Equal(got, want) {
			t.Errorf("%s: encoding moved\n got: %s %x\nwant: %s %x", name, name, got, name, want)
		}
		if m.Size() != len(want) {
			t.Errorf("%s: Size() %d, golden encoding is %d bytes", name, m.Size(), len(want))
		}
		if got, err := Decode(want); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%s: golden bytes decode to %+v (%v), want %+v", name, got, err, m)
		}
	}
}
