package protocol

import (
	"errors"
	"fmt"
	"reflect"

	"prism/internal/levec"
)

// Laid encode: a query round's b-cell vectors are written once, by the
// code that computes them, straight into the buffer of the frame that
// carries them. Lay lays a message out with each reserved vector — a
// non-nil empty vector, Reserve's — given n cells at a declared width
// w; the producer writes the cells through Cells; Finish writes the rest
// of the message around them. Every reserved vector travels at width w,
// whatever its cells turn out to need — the decoder takes any width up
// to the element's size — so the payload's length follows from the
// message's shape alone and a reply's size says nothing of its cells.
// It is Measure + AppendTo's bytes of the message with its vectors
// filled in whenever every vector needs all of w. Fields that outgrow
// the room Lay left after the last vector (a traced reply's spans) grow
// the buffer as an append does.

// tailRoom is what Lay leaves past the payload for the fields after the
// last reserved vector to grow into by Finish: a reply's Stats without
// spans, five varints and a count, always fits.
const tailRoom = 64

// A FramePool lends the buffers laid messages are written in.
type FramePool interface {
	// Frame returns a buffer whose bytes from head on hold a payload of
	// size bytes and room bytes more, or the error refusing the payload.
	Frame(size, room int) (buf []byte, head int, err error)
	// Release takes back a buffer Frame returned.
	Release(buf []byte)
}

// Reserve is the placeholder of a produced vector in a message handed
// to Lay and Finish: a non-nil empty vector, which Lay reserves cells
// for and every other encode writes as the empty vector.
func Reserve[T levec.Elem]() []T { return []T{} }

// Laid is a message laid out in a pooled buffer around its reserved
// vectors. Its owner either hands it on (a transport sends it and
// releases it) or calls Release.
type Laid struct {
	Label string // the message's type name, as Measured's
	pool  FramePool
	buf   []byte // the payload starts at buf[head]
	head  int
	size  int // the payload's bytes once finished; -1 before
	index int
	n, w  int
	vecs  []laidVec
}

// laidVec is one reserved vector: where its cells start in the payload
// and the size of its element type.
type laidVec struct{ off, size int }

// Lay lays msg out in a buffer from pool, reserving n cells at width w
// (1, 2, 4 or 8, at most the element's size) for every reserved vector
// of msg, in the codec's walk order: struct fields in order, map values
// by sorted key. A refusal by the pool (a payload over the frame cap)
// comes before anything is written.
func Lay(msg any, n, w int, pool FramePool) (*Laid, error) {
	k, ok := msgIndex[reflect.TypeOf(msg)]
	if !ok {
		return nil, fmt.Errorf("protocol: %T is not a wire message", msg)
	}
	if n < 0 || w&(w-1) != 0 || w < 1 || w > 8 {
		return nil, fmt.Errorf("protocol: %d cells of width %d", n, w)
	}
	l := &Laid{Label: msgTypes[k-1].t.Name(), pool: pool, size: -1, index: k, n: n, w: w}
	e := encoder{dry: true, lay: l}
	l.encode(&e, msg)
	for _, v := range l.vecs {
		if w > v.size {
			return nil, fmt.Errorf("protocol: width %d for %d-byte cells", w, v.size)
		}
	}
	buf, head, err := pool.Frame(e.n, tailRoom)
	if err != nil {
		return nil, err
	}
	l.buf, l.head = buf, head
	return l, nil
}

func (l *Laid) encode(e *encoder, msg any) {
	e.uvarint(uint64(l.index))
	msgTypes[l.index-1].codec.enc(e, reflect.ValueOf(msg))
}

// reserved passes the encoder over reserved vector e.k: Lay's run
// records where its cells go, later runs check that they are still
// there, and the writing run steps over them.
func (e *encoder) reserved(size int) {
	l := e.lay
	e.uvarint(uint64(l.w))
	e.uvarint(uint64(l.n))
	switch {
	case l.buf == nil: // Lay's run
		l.vecs = append(l.vecs, laidVec{off: e.n, size: size})
	case e.k >= len(l.vecs) || l.vecs[e.k] != laidVec{off: e.n, size: size}:
		e.moved = true
	}
	e.k++
	cells := l.n * l.w
	if e.n += cells; !e.dry && !e.moved {
		e.buf = e.buf[:len(e.buf)+cells]
	}
}

// Vector is one reserved vector of a laid message, as its producer
// writes it.
type Vector[T levec.Elem] struct {
	cells []byte
	w     int
}

// Cells returns reserved vector k of l, counted in walk order. T is the
// vector's element type.
func Cells[T levec.Elem](l *Laid, k int) Vector[T] {
	v := l.vecs[k]
	if v.size != elemSize[T]() {
		panic(fmt.Sprintf("protocol: reserved vector %d of %s holds %d-byte cells, not %T", k, l.Label, v.size, T(0)))
	}
	return Vector[T]{cells: l.buf[l.head+v.off:][:l.n*l.w], w: l.w}
}

// Put writes cells as the vector's cells at, at+1, …: one levec.Put at
// the declared width. Producers may Put disjoint cells concurrently.
func (v Vector[T]) Put(at int, cells []T) {
	if or := uint64(levec.Put(v.cells[at*v.w:], cells, v.w)); v.w < 8 && or>>(8*v.w) != 0 {
		panic(fmt.Sprintf("protocol: cell bits %#x past the declared width %d", or, v.w))
	}
}

// Finish writes msg — the message Lay was given, the fields after its
// last reserved vector now filled in — around the written vectors. Every
// cell of every reserved vector must have been put. On an error l still
// holds its buffer.
func (l *Laid) Finish(msg any) error {
	if l.buf == nil || l.size >= 0 {
		return errors.New("protocol: Finish of a released or finished laid message")
	}
	if reflect.TypeOf(msg) != msgTypes[l.index-1].t {
		return fmt.Errorf("protocol: Finish of a laid %s with a %T", l.Label, msg)
	}
	dry := encoder{dry: true, lay: l}
	l.encode(&dry, msg)
	if dry.moved || dry.k != len(l.vecs) {
		return fmt.Errorf("protocol: laid %s changed before its last reserved vector", l.Label)
	}
	// Fields past the room Lay left grow the buffer as any append does.
	e := encoder{buf: l.buf[:l.head], widths: dry.widths, lay: l}
	l.encode(&e, msg)
	l.buf, l.size = e.buf, e.n
	return nil
}

// Payload returns the finished message's encoding.
func (l *Laid) Payload() []byte {
	if l.buf == nil || l.size < 0 {
		panic("protocol: Payload of a released or unfinished laid message")
	}
	return l.buf[l.head : l.head+l.size]
}

// Message decodes the finished message into a value that shares no
// memory with the buffer.
func (l *Laid) Message() (any, error) { return DecodeMessage(l.Payload()) }

// Detach hands the finished message's buffer over: buf[head:] is the
// payload and buf[:head] is free for a frame header. The new holder
// gives buf back to the pool; l is empty after, and its Release does
// nothing.
func (l *Laid) Detach() (buf []byte, head int) {
	l.Payload() // finished and not released
	buf, head = l.buf[:l.head+l.size], l.head
	l.buf = nil
	return buf, head
}

// Release gives the buffer back to the pool, unless it was released or
// detached already.
func (l *Laid) Release() {
	if l.buf != nil {
		l.pool.Release(l.buf)
		l.buf = nil
	}
}
