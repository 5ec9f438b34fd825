package wire

import (
	"bytes"
	"testing"

	"tiger/internal/msg"
)

// FuzzRecv feeds Conn.Recv an arbitrary byte stream until it errors. The
// framer must not panic, and its buffer must stay within twice the bytes
// the peer actually presented plus a constant — a frame length is a
// claim, not a reason to allocate. The seed under testdata is the input
// that broke the second half: a bare header claiming MaxFrame.
func FuzzRecv(f *testing.F) {
	var stream bytes.Buffer
	sender := NewConn(bufConn{buf: &stream})
	for _, m := range []msg.Message{
		&msg.Heartbeat{From: 3, Epoch: 9, Now: 42},
		&msg.ViewerState{Viewer: 1, Instance: 2, Slot: 3, Due: 4},
		&msg.Batch{Msgs: []msg.Message{&msg.Deschedule{Viewer: 5, Instance: 6, Slot: 7}}},
		&msg.BlockData{Block: 1, Bytes: 64, Payload: bytes.Repeat([]byte{'A'}, 64)},
	} {
		if err := sender.Send(m); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(stream.Bytes())) // one frame, then two, …
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		c := recvFrom(in)
		for {
			if _, err := c.Recv(); err != nil {
				break
			}
		}
		if limit := 2*len(in) + 4096; cap(c.rbuf) > limit {
			t.Fatalf("%d bytes presented, read buffer grew to %d (limit %d)", len(in), cap(c.rbuf), limit)
		}
	})
}
