// Package wire frames Tiger control messages for TCP transport: a
// 4-byte little-endian length prefix followed by the msg codec's
// encoding. Tiger uses TCP between cubs precisely because the insertion
// argument of §4.1.3 depends on in-order pairwise delivery.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"tiger/internal/msg"
)

// MaxFrame bounds a single frame; far above any batch the cubs produce,
// low enough to fail fast on stream corruption.
const MaxFrame = 16 << 20

// readFrame reads one frame's body into buf (from its start, whatever it
// held) and returns it. A buffer too small for the frame grows as the
// bytes arrive, never to more than twice what has been read: the length
// is the peer's claim, and a peer that claims MaxFrame and sends nothing
// must not cost 16 MiB.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 4) // the header borrows the body's first bytes
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf[:4]))
	if n == 0 || n > MaxFrame {
		return buf, fmt.Errorf("wire: bad frame length %d", n)
	}
	for len(buf) < n {
		step := min(n-len(buf), max(cap(buf)-len(buf), len(buf), 4096))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Conn is a framed, write-locked connection. Reads are not locked; run
// them from a single reader goroutine.
//
// Both directions reuse per-connection scratch buffers: the write path
// encodes into wbuf under the write lock, and the read path reads frame
// bodies into rbuf, which is safe to recycle because the msg codec never
// retains the input buffer (every decoder copies what it keeps). Steady
// sends allocate nothing; so do steady receives through RecvPooled whose
// caller releases each record once handled, while Recv allocates the
// decoded message.
type Conn struct {
	c    net.Conn
	br   *bufio.Reader
	rbuf []byte // read scratch; single-reader, grows to the peak frame

	mu   sync.Mutex
	bw   *bufio.Writer
	wbuf []byte // write scratch, guarded by mu
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
}

// Send frames, writes, and flushes one message. Safe for concurrent use.
func (c *Conn) Send(m msg.Message) error {
	if err := c.Write(m); err != nil {
		return err
	}
	return c.Flush()
}

// Write frames one message into the connection's buffer without flushing
// it, so a writer with several frames ready pays for one Flush. The buffer
// writes through to the socket by itself only when a frame does not fit.
// Safe for concurrent use.
func (c *Conn) Write(m msg.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The frame header lives in the scratch buffer's first four bytes, so
	// header plus body go out in one Write with no per-send allocation (a
	// stack [4]byte would escape through the io.Writer interface).
	c.wbuf = append(c.wbuf[:0], 0, 0, 0, 0)
	c.wbuf = msg.AppendEncode(c.wbuf, m)
	body := len(c.wbuf) - 4
	if body > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", body)
	}
	binary.LittleEndian.PutUint32(c.wbuf[:4], uint32(body))
	_, err := c.bw.Write(c.wbuf)
	return err
}

// Flush writes whatever Write has buffered to the socket.
func (c *Conn) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bw.Flush()
}

// Recv reads the next message into a fresh record. Single-reader only.
func (c *Conn) Recv() (msg.Message, error) { return c.RecvPooled(nil) }

// RecvPooled reads the next message into a record taken from p (see
// msg.Pool). Single-reader only.
func (c *Conn) RecvPooled(p *msg.Pool) (msg.Message, error) {
	var err error
	if c.rbuf, err = readFrame(c.br, c.rbuf); err != nil {
		return nil, err
	}
	return p.Decode(c.rbuf)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// RemoteAddr reports the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.c.RemoteAddr() }
