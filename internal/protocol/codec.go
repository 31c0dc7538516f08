package protocol

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"slices"
	"unsafe"

	"prism/internal/levec"
)

// One binary codec writes every message: its type index (0 for none, k
// for Messages()[k-1]), then its value by a reflection plan built per
// type at init, where a field kind without an encoding panics. The
// layout is "Wire format" in docs/ARCHITECTURE.md. Vectors are
// width-packed, map keys sorted, so equal messages are equal bytes; an
// empty slice or map is a nil one. The decoder walks the Go type, not
// the input, and checks every count against the bytes left before it
// allocates.

// borrowed lists the message types whose full-width vectors
// DecodeBorrowing lets alias its input: the b-cell share vectors of
// every query round, which their consumer reads once and drops.
var borrowed = []any{PSIReply{}, CountReply{}, PSUReply{}, AggReply{}, AggRequest{}}

// codec encodes and decodes one Go type.
type codec struct {
	enc func(*encoder, reflect.Value)
	dec func(*decoder, reflect.Value)
}

// msgType is one entry of the type table.
type msgType struct {
	t      reflect.Type
	codec  codec
	borrow bool // t is in borrowed
}

var (
	msgTypes []msgType                // type index k names msgTypes[k-1]
	msgIndex = map[reflect.Type]int{} // the inverse
)

func init() {
	for i, m := range Messages() {
		t := reflect.TypeOf(m)
		msgTypes = append(msgTypes, msgType{t: t, codec: codecFor(t)})
		msgIndex[t] = i + 1
	}
	for _, m := range borrowed {
		msgTypes[msgIndex[reflect.TypeOf(m)]-1].borrow = true
	}
}

func codecFor(t reflect.Type) codec {
	switch t {
	case reflect.TypeFor[[]byte]():
		return codec{enc: (*encoder).bytes, dec: (*decoder).bytes}
	case reflect.TypeFor[[]uint16]():
		return vectorCodec[uint16]()
	case reflect.TypeFor[[]uint32]():
		return vectorCodec[uint32]()
	case reflect.TypeFor[[]uint64]():
		return vectorCodec[uint64]()
	case reflect.TypeFor[map[string][]uint64]():
		return codec{enc: encVectorMap, dec: decVectorMap}
	}
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return codec{enc: (*encoder).scalar, dec: (*decoder).scalar}
	case reflect.String:
		return codec{enc: (*encoder).string, dec: (*decoder).string}
	case reflect.Slice:
		elem := codecFor(t.Elem())
		return codec{enc: func(e *encoder, v reflect.Value) {
			e.uvarint(uint64(v.Len()))
			for i := range v.Len() {
				elem.enc(e, v.Index(i))
			}
		}, dec: func(d *decoder, v reflect.Value) {
			if n := d.count(1); n > 0 { // every element takes a byte at least
				v.Set(reflect.MakeSlice(t, n, n))
				for i := range n {
					elem.dec(d, v.Index(i))
				}
			}
		}}
	case reflect.Struct:
		var fields []int
		var codecs []codec
		for i := range t.NumField() {
			if t.Field(i).IsExported() {
				fields, codecs = append(fields, i), append(codecs, codecFor(t.Field(i).Type))
			}
		}
		return codec{enc: func(e *encoder, v reflect.Value) {
			for j, i := range fields {
				codecs[j].enc(e, v.Field(i))
			}
		}, dec: func(d *decoder, v reflect.Value) {
			for j, i := range fields {
				codecs[j].dec(d, v.Field(i))
			}
		}}
	}
	panic(fmt.Sprintf("protocol: %s has no wire encoding", t))
}

// Measured is a message sized for the wire: Size bytes that AppendTo
// writes.
type Measured struct {
	Label  string // the message's type name, for metrics ("PSIReply")
	Size   int
	index  int
	v      reflect.Value
	widths []uint8 // each vector's width, in walk order
}

// Measure sizes msg (nil for no payload) without writing it, so a caller
// can refuse an over-cap message before it allocates a buffer. A type
// outside Messages() is an error.
func Measure(msg any) (Measured, error) {
	k, ok := msgIndex[reflect.TypeOf(msg)]
	if !ok && msg != nil {
		return Measured{}, fmt.Errorf("protocol: %T is not a wire message", msg)
	}
	m := Measured{Label: "<nil>", index: k, v: reflect.ValueOf(msg)}
	if k > 0 {
		m.Label = msgTypes[k-1].t.Name()
	}
	e := encoder{dry: true}
	m.encode(&e)
	m.Size, m.widths = e.n, e.widths
	return m, nil
}

// AppendTo appends the encoding to dst.
func (m *Measured) AppendTo(dst []byte) []byte {
	e := encoder{buf: slices.Grow(dst, m.Size), widths: m.widths}
	m.encode(&e)
	return e.buf
}

func (m *Measured) encode(e *encoder) {
	if e.uvarint(uint64(m.index)); m.index > 0 {
		msgTypes[m.index-1].codec.enc(e, m.v)
	}
}

// DecodeMessage is the inverse of Measure + AppendTo on the whole of b:
// a byte left over is an error too. Nothing in the result aliases b.
func DecodeMessage(b []byte) (any, error) {
	msg, _, err := decode(b, false)
	return msg, err
}

// DecodeBorrowing is DecodeMessage, except that where the platform
// allows it (canBorrow) a full-width vector of a borrowed type aliases
// b. aliased reports whether one does: b must then keep its bytes for
// as long as the message is in use. The values are DecodeMessage's.
func DecodeBorrowing(b []byte) (msg any, aliased bool, err error) {
	return decode(b, canBorrow)
}

func decode(b []byte, borrow bool) (any, bool, error) {
	d := decoder{b: b}
	var msg any
	if k := d.uvarint(); k > uint64(len(msgTypes)) {
		d.fail(fmt.Sprintf("unknown message type %d", k))
	} else if k > 0 {
		d.borrow = borrow && msgTypes[k-1].borrow
		v := reflect.New(msgTypes[k-1].t).Elem()
		msgTypes[k-1].codec.dec(&d, v)
		msg = v.Interface()
	}
	if len(d.b) > 0 {
		d.fail(fmt.Sprintf("%d trailing bytes", len(d.b)))
	}
	if d.err != nil {
		return nil, false, d.err
	}
	return msg, d.aliased, nil
}

// encoder runs a plan twice: dry, it counts bytes and records each
// vector's width; then it writes into a buffer of exactly that size. n
// is the bytes passed so far in either run. With lay set, a non-nil
// empty vector is one of the laid message's reserved vectors (laid.go).
type encoder struct {
	buf    []byte
	dry    bool
	n      int
	widths []uint8
	lay    *Laid
	k      int  // reserved vectors passed
	moved  bool // a reserved vector is not where Lay put it
}

func (e *encoder) uvarint(x uint64) {
	if e.n += (bits.Len64(x|1) + 6) / 7; !e.dry {
		e.buf = binary.AppendUvarint(e.buf, x)
	}
}

// str writes s length-prefixed.
func str[S string | []byte](e *encoder, s S) {
	e.uvarint(uint64(len(s)))
	if e.n += len(s); !e.dry {
		e.buf = append(e.buf, s...)
	}
}

func (e *encoder) string(v reflect.Value) { str(e, v.String()) }
func (e *encoder) bytes(v reflect.Value)  { str(e, v.Bytes()) }

// scalar writes a bool as 0 or 1 (one byte), a signed integer as a
// zigzag varint and an unsigned one as a uvarint.
func (e *encoder) scalar(v reflect.Value) {
	switch {
	case v.Kind() == reflect.Bool && v.Bool():
		e.uvarint(1)
	case v.Kind() == reflect.Bool:
		e.uvarint(0)
	case v.CanInt():
		e.uvarint(uint64(v.Int()<<1) ^ uint64(v.Int()>>63))
	default:
		e.uvarint(v.Uint())
	}
}

func vectorCodec[T levec.Elem]() codec {
	return codec{enc: func(e *encoder, v reflect.Value) { encVector(e, v.Interface().([]T)) },
		dec: func(d *decoder, v reflect.Value) { *v.Addr().Interface().(*[]T) = decVector[T](d) }}
}

func encVector[T levec.Elem](e *encoder, v []T) {
	if e.lay != nil && v != nil && len(v) == 0 {
		e.reserved(elemSize[T]())
		return
	}
	var w uint8
	if e.dry {
		w = uint8(levec.Width(v))
		e.widths = append(e.widths, w)
	} else {
		w, e.widths = e.widths[0], e.widths[1:]
	}
	e.uvarint(uint64(w))
	e.uvarint(uint64(len(v)))
	n := len(v) * int(w)
	if e.n += n; !e.dry {
		e.buf = e.buf[:len(e.buf)+n]
		levec.Put(e.buf[len(e.buf)-n:], v, int(w))
	}
}

func elemSize[T levec.Elem]() int { return int(reflect.TypeFor[T]().Size()) }

func encVectorMap(e *encoder, v reflect.Value) {
	m := v.Interface().(map[string][]uint64)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.uvarint(uint64(len(keys)))
	for _, k := range keys {
		str(e, k)
		encVector(e, m[k])
	}
}

// decoder reads a message's bytes. The first failure is kept and empties
// the input, so every later read comes back zero and nothing more is
// allocated. With borrow set, full-width vectors alias the input, and
// aliased records that one did.
type decoder struct {
	b       []byte
	err     error
	borrow  bool
	aliased bool
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("protocol: %s", what)
	}
	d.b = nil
}

// uvarint reads a varint in its shortest form; any other is refused, so
// a bool or a vector width is one byte.
func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || n != (bits.Len64(x|1)+6)/7 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// count reads an element count whose elements take unit bytes at least,
// and fails (returning 0) unless that many bytes are left.
func (d *decoder) count(unit int) int {
	if n := d.uvarint(); n <= uint64(len(d.b)/unit) {
		return int(n)
	}
	d.fail("count past the end of the message")
	return 0
}

// take returns the next n bytes; n is at most what is left.
func (d *decoder) take(n int) []byte {
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

// str reads a length-prefixed byte string, aliasing the input.
func (d *decoder) str() []byte { return d.take(d.count(1)) }

func (d *decoder) string(v reflect.Value) { v.SetString(string(d.str())) }

func (d *decoder) bytes(v reflect.Value) {
	if b := d.str(); len(b) > 0 {
		v.SetBytes(slices.Clone(b))
	}
}

// scalar reads what encoder.scalar wrote, failing on a value the field
// cannot hold: a bool above 1, an integer past the field's width.
func (d *decoder) scalar(v reflect.Value) {
	u := d.uvarint()
	switch x := int64(u>>1) ^ -int64(u&1); {
	case v.Kind() == reflect.Bool && u <= 1:
		v.SetBool(u == 1)
	case v.CanInt() && !v.OverflowInt(x):
		v.SetInt(x)
	case v.CanUint() && !v.OverflowUint(u):
		v.SetUint(u)
	default:
		d.fail(fmt.Sprintf("%d out of range for %s", u, v.Type()))
	}
}

// decVector reads one vector; nil when it is empty or the input is bad.
func decVector[T levec.Elem](d *decoder) []T {
	size := uint64(elemSize[T]())
	w := d.uvarint()
	if w == 0 || w&(w-1) != 0 || w > size {
		d.fail(fmt.Sprintf("vector width %d for %T", w, []T(nil)))
		return nil
	}
	n := d.count(int(w))
	if n == 0 {
		return nil
	}
	if d.borrow && w == size {
		d.aliased = true
		return alias[T](d.take(n*int(w)), n)
	}
	out := make([]T, n)
	levec.Get(out, d.take(n*int(w)), int(w))
	return out
}

// canBorrow: the GOARCH stores integers little-endian and loads them
// from any address, so a full-width vector can alias its frame wherever
// the frame puts it. Elsewhere every decoded vector is a copy.
const canBorrow = runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"

// alias is b, n full-width little-endian cells, as a []T over the same
// memory, its capacity its length, so an append copies. Only a canBorrow
// GOARCH calls it.
func alias[T levec.Elem](b []byte, n int) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

func decVectorMap(d *decoder, v reflect.Value) {
	n := d.count(3) // a key length, a width and a count at least
	if n == 0 {
		return
	}
	m := make(map[string][]uint64, n)
	for i, prev := 0, ""; i < n && d.err == nil; i++ {
		k := string(d.str())
		if i > 0 && k <= prev {
			d.fail(fmt.Sprintf("map key %q repeated or out of order", k))
		}
		m[k], prev = decVector[uint64](d), k
	}
	v.Set(reflect.ValueOf(m))
}
