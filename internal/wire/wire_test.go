package wire

import (
	"bytes"
	"net"
	"reflect"
	"sync"
	"testing"

	"tiger/internal/msg"
)

// bufConn is a net.Conn over a byte buffer: what Send writes, Recv reads
// back. Conn calls nothing but Read and Write on it.
type bufConn struct {
	net.Conn
	buf *bytes.Buffer
}

func (c bufConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }
func (c bufConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

// recvFrom returns a Conn whose peer sent exactly stream.
func recvFrom(stream []byte) *Conn { return NewConn(bufConn{buf: bytes.NewBuffer(stream)}) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	conn := NewConn(bufConn{buf: &buf})
	msgs := []msg.Message{
		&msg.Heartbeat{From: 3, Epoch: 9, Now: 42},
		&msg.ViewerState{Viewer: 1, Instance: 2, Slot: 3, Due: 4},
		&msg.Batch{Msgs: []msg.Message{&msg.Deschedule{Viewer: 5, Instance: 6, Slot: 7}}},
	}
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip: %+v != %+v", want, got)
		}
	}
}

// TestReadMessageErrors: what Conn.Recv refuses in a frame.
func TestReadMessageErrors(t *testing.T) {
	// Truncated header.
	if _, err := recvFrom([]byte{1, 0}).Recv(); err == nil {
		t.Error("truncated header accepted")
	}
	// Zero-length frame.
	if _, err := recvFrom([]byte{0, 0, 0, 0}).Recv(); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversized frame length.
	if _, err := recvFrom([]byte{0xFF, 0xFF, 0xFF, 0x7F}).Recv(); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := NewConn(bufConn{buf: &buf}).Send(&msg.Heartbeat{From: 1}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := recvFrom(b[:len(b)-2]).Recv(); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const n = 200
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				done <- err
				return
			}
			hb, ok := m.(*msg.Heartbeat)
			if !ok || hb.Epoch != int32(i) {
				done <- err
				return
			}
		}
		done <- nil
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(c)
	defer conn.Close()

	// Concurrent senders must interleave whole frames, never bytes.
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				// Hold the ID lock across Send so epochs arrive ordered;
				// the concurrency still exercises Conn's write lock.
				err := conn.Send(&msg.Heartbeat{Epoch: int32(i)})
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// discardConn satisfies net.Conn for the write path only; Send must
// never touch the embedded nil Conn's other methods.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSendAllocBudget pins the transport's steady-state allocation
// budget: once the connection's scratch buffer has grown to the frame
// size, Send must not allocate.
func TestSendAllocBudget(t *testing.T) {
	conn := NewConn(discardConn{})
	hb := &msg.Heartbeat{From: 1, Epoch: 2, Now: 3}
	if err := conn.Send(hb); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() {
		if err := conn.Send(hb); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("Conn.Send allocated %.1f/op on a warmed connection, want 0", a)
	}
}

// countingConn records each Write that reaches the socket.
type countingConn struct {
	net.Conn
	buf    bytes.Buffer
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

// TestWriteFlushCoalesces: frames written without a flush stay in the
// connection's buffer and reach the socket in the one write Flush makes,
// and they read back as the same frames, in order.
func TestWriteFlushCoalesces(t *testing.T) {
	sock := &countingConn{}
	conn := NewConn(sock)
	const n = 16
	for i := 0; i < n; i++ {
		if err := conn.Write(&msg.Heartbeat{From: 1, Epoch: int32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if sock.writes != 0 {
		t.Fatalf("%d socket writes before the flush", sock.writes)
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	if sock.writes != 1 {
		t.Fatalf("%d frames reached the socket in %d writes, want 1", n, sock.writes)
	}
	rx := recvFrom(sock.buf.Bytes())
	for i := 0; i < n; i++ {
		m, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if hb, ok := m.(*msg.Heartbeat); !ok || hb.Epoch != int32(i) {
			t.Fatalf("frame %d read back as %+v", i, m)
		}
	}
	if _, err := rx.Recv(); err == nil {
		t.Fatal("a frame more than was written")
	}
}

// TestRecvBufferReuse checks that recycling the read scratch buffer can
// never corrupt an earlier decoded message: decoders must copy anything
// they keep out of the frame body.
func TestRecvBufferReuse(t *testing.T) {
	cl, sv := net.Pipe()
	defer cl.Close()
	go func() {
		conn := NewConn(sv)
		defer conn.Close()
		for i := 0; i < 2; i++ {
			payload := bytes.Repeat([]byte{byte('A' + i)}, 64)
			if err := conn.Send(&msg.BlockData{Block: int32(i), Bytes: 64, Payload: payload}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	conn := NewConn(cl)
	first, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // overwrites the read scratch
		t.Fatal(err)
	}
	bd := first.(*msg.BlockData)
	if !bytes.Equal(bd.Payload, bytes.Repeat([]byte{'A'}, 64)) {
		t.Fatal("first message's payload corrupted by scratch-buffer reuse")
	}
}
