package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A message states its wire layout once, as a fields method that names
// each field in wire order against a coder. The same walk runs in three
// modes — add the widths, append the bytes, consume the bytes — so
// Size(), AppendEncode and Decode cannot disagree about a layout.
//
// The coder travels by value (fields takes one and returns it; the
// helpers take the address of that local): a *coder handed through the
// Message interface escapes and costs an allocation per message.
//
// Decoding writes every field of the record it is given, so a record
// recycled through a Pool comes out equal to a fresh one; what the
// record already holds only lends its capacity (a payload's bytes, a
// batch's slice).
type coder struct {
	mode uint8  // sizing, encoding or decoding
	n    int    // sizing: bytes so far
	b    []byte // encoding: the output so far; decoding: what is left to read
	err  error  // decoding: the first failure; every later field is skipped
	pool *Pool  // decoding: where a batch's elements come from (nil: fresh)
}

const (
	sizing uint8 = iota // the zero coder adds widths
	encoding
	decoding
)

// Limits on peer-claimed lengths, checked before anything is allocated.
const (
	maxCount   = 1 << 20 // records in one counted field
	maxPayload = 1 << 24 // bytes in one BlockData payload
)

var (
	errShort       = errors.New("msg: short buffer")
	errNestedBatch = errors.New("msg: batch inside a batch")
)

// take consumes the next n bytes of a decoding coder, or fails it.
func (c *coder) take(n int) []byte {
	if c.err == nil && len(c.b) < n {
		c.err = errShort
	}
	if c.err != nil {
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func u8[T ~int8 | ~uint8](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.n++
	case encoding:
		c.b = append(c.b, byte(*v))
	default:
		if p := c.take(1); p != nil {
			*v = T(p[0])
		}
	}
}

func u32[T ~int32 | ~uint32](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.n += 4
	case encoding:
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	default:
		if p := c.take(4); p != nil {
			*v = T(binary.LittleEndian.Uint32(p))
		}
	}
}

func u64[T ~int64 | ~uint64](c *coder, v *T) {
	switch c.mode {
	case sizing:
		c.n += 8
	case encoding:
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	default:
		if p := c.take(8); p != nil {
			*v = T(binary.LittleEndian.Uint64(p))
		}
	}
}

// flag is a bool in one byte: 1 or 0 written, any non-zero read as true.
func (c *coder) flag(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	u8(c, &b)
	if c.mode == decoding {
		*v = b != 0
	}
}

// raw is len(p) bytes with no length prefix; decoding copies into p.
func (c *coder) raw(p []byte) {
	switch c.mode {
	case sizing:
		c.n += len(p)
	case encoding:
		c.b = append(c.b, p...)
	default:
		copy(p, c.take(len(p)))
	}
}

// count is the u32 length of what follows: n going out, the peer's claim
// coming in — refused unless it is at most max and the bytes that follow
// can hold that many elements of width bytes each, so no caller
// allocates for elements that are not there. A failed coder counts 0.
func (c *coder) count(n, width, max int) int {
	v := uint32(n)
	u32(c, &v)
	if c.mode == decoding && c.err == nil && (int(v) > max || int(v) > len(c.b)/width) {
		c.err = fmt.Errorf("msg: count %d exceeds the %d bytes that follow", v, len(c.b))
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// counted is a count followed by that many fixed-width records, each
// walked by each. Decoding makes the slice, so it owns its memory, and
// learns the width a record needs from sizing an empty one.
func counted[T any](c *coder, s *[]T, each func(*T, coder) coder) {
	if c.mode == decoding {
		*s = make([]T, c.count(0, each(new(T), coder{}).n, maxCount))
	} else {
		c.count(len(*s), 1, maxCount)
	}
	for i := range *s {
		*c = each(&(*s)[i], *c)
	}
}

// payload is a count followed by that many bytes; decoding copies them
// out of the frame into the record's own capacity (nil when there are
// none, as in a fresh record).
func (c *coder) payload(p *[]byte) {
	n := c.count(len(*p), 1, maxPayload)
	if c.mode == decoding {
		if *p = append((*p)[:0], c.take(n)...); n == 0 {
			*p = nil
		}
		return
	}
	c.raw(*p)
}

// message is one whole message, type tag first.
func (c *coder) message(m *Message) {
	switch c.mode {
	case sizing:
		c.n += (*m).Size()
	case encoding:
		c.b = AppendEncode(c.b, *m)
	default:
		if c.err == nil {
			*m, c.b, c.err = Consume(c.b, c.pool)
		}
	}
}

// size walks m's fields adding widths: Size() for the messages whose
// length depends on their contents.
func size(m Message) int { return 1 + m.fields(coder{}).n }
