package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Bulk share vectors never travel through gob. Every []uint16, []uint32,
// []uint64 and map[string][]uint64 field of a message — found once per
// message type by reflection and cached, so no message carries codec code
// of its own — is detached before the envelope is gob-encoded and
// follows it as a slab record:
//
//	uvarint  struct field index
//	byte     0 = slice field, 1 = one entry of a map field
//	uvarint  key length, then the key bytes   (map entries only)
//	byte     element width on the wire: 1, 2, 4 or 8
//	uvarint  element count
//	count × width bytes of little-endian elements
//
// The width is the narrowest that holds the vector's largest element.
// Records are ordered by field index and, within a map field, by key, so
// equal messages encode to equal bytes. Empty vectors and empty maps
// have no record: they stay in the envelope, where gob drops an empty
// slice (it arrives nil) and keeps an empty map, as it always has.

// ErrCorruptSlab reports a slab section that does not parse against the
// message type it arrived with.
var ErrCorruptSlab = errors.New("protocol: corrupt slab section")

// slabKind is a field's in-memory element size in bytes, which bounds
// its wire width; 0 marks a field that stays in gob.
type slabKind uint8

const slabMapU64 slabKind = 9 // map[string][]uint64: 8-byte elements, keyed records

var slabKinds = map[reflect.Type]slabKind{
	reflect.TypeOf([]uint16(nil)):            2,
	reflect.TypeOf([]uint32(nil)):            4,
	reflect.TypeOf([]uint64(nil)):            8,
	reflect.TypeOf(map[string][]uint64(nil)): slabMapU64,
}

// wireType is what the frame codec needs to know about one message type.
type wireType struct {
	label string     // type name without package path, the metrics label
	kinds []slabKind // per struct field; nil when the type has no bulk vector
}

var wireTypes sync.Map // reflect.Type → *wireType

// wireTypeOf describes v's type (from the cache after the first call)
// and returns v as a reflect.Value.
func wireTypeOf(v any) (*wireType, reflect.Value) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return &wireType{label: "<nil>"}, rv
	}
	t := rv.Type()
	if wt, ok := wireTypes.Load(t); ok {
		return wt.(*wireType), rv
	}
	wt := &wireType{label: t.String()}
	wt.label = wt.label[strings.LastIndexByte(wt.label, '.')+1:]
	if t.Kind() == reflect.Struct {
		kinds := make([]slabKind, t.NumField())
		for i := range kinds {
			if f := t.Field(i); f.IsExported() && slabKinds[f.Type] != 0 {
				kinds[i] = slabKinds[f.Type]
				wt.kinds = kinds
			}
		}
	}
	wireTypes.Store(t, wt)
	return wt, rv
}

// slab is one detached vector: vec is a []uint16, []uint32 or []uint64.
type slab struct {
	field, width, count int
	keyed               bool
	key                 string
	vec                 any
}

// Slabs is the set of vectors detached from one message.
type Slabs struct {
	Label string // the message's type name, for metrics ("PSIReply")
	recs  []slab
	size  int
}

// Size is the exact encoded length of the slab section in bytes.
func (s *Slabs) Size() int { return s.size }

// add records one vector whose elements OR together to or; its wire
// width is the narrowest of 1/2/4/8 bytes that holds them all.
func (s *Slabs) add(r slab, or uint64) {
	for r.width = 1; r.width < 8 && or>>(8*r.width) != 0; r.width *= 2 {
	}
	s.recs = append(s.recs, r)
	s.size += uvarintLen(r.field) + 2 + uvarintLen(r.count) + r.count*r.width
	if r.keyed {
		s.size += uvarintLen(len(r.key)) + len(r.key)
	}
}

// Detach splits msg into the header that still goes through gob — a
// shallow copy with every bulk-vector field cleared, or msg itself when
// it carries none — and the vectors. msg is not modified.
func Detach(msg any) (header any, s Slabs) {
	wt, rv := wireTypeOf(msg)
	s.Label = wt.label
	for i, k := range wt.kinds {
		if k == 0 || rv.Field(i).Len() == 0 {
			continue
		}
		switch v := rv.Field(i).Interface().(type) {
		case []uint16:
			s.add(slab{field: i, count: len(v), vec: v}, orAll(v))
		case []uint32:
			s.add(slab{field: i, count: len(v), vec: v}, orAll(v))
		case []uint64:
			s.add(slab{field: i, count: len(v), vec: v}, orAll(v))
		case map[string][]uint64:
			keys := make([]string, 0, len(v))
			for key := range v {
				keys = append(keys, key)
			}
			slices.Sort(keys)
			for _, key := range keys {
				s.add(slab{field: i, count: len(v[key]), vec: v[key], keyed: true, key: key}, orAll(v[key]))
			}
		}
	}
	if len(s.recs) == 0 {
		return msg, s
	}
	cp := reflect.New(rv.Type()).Elem()
	cp.Set(rv)
	for _, r := range s.recs {
		cp.Field(r.field).SetZero()
	}
	return cp.Interface(), s
}

// AppendTo appends the slab section to dst.
func (s *Slabs) AppendTo(dst []byte) []byte {
	dst = slices.Grow(dst, s.size)
	for _, r := range s.recs {
		dst = binary.AppendUvarint(dst, uint64(r.field))
		if r.keyed {
			dst = binary.AppendUvarint(append(dst, 1), uint64(len(r.key)))
			dst = append(dst, r.key...)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(append(dst, byte(r.width)), uint64(r.count))
		n := len(dst)
		dst = dst[:n+r.count*r.width]
		switch v := r.vec.(type) {
		case []uint16:
			pack(dst[n:], v, r.width)
		case []uint32:
			pack(dst[n:], v, r.width)
		case []uint64:
			pack(dst[n:], v, r.width)
		}
	}
	return dst
}

// Attach is Detach's inverse: it returns header with each vector of the
// slab section copied into a freshly made slice of its field's type, so
// nothing in the result aliases section. A malformed section — unknown
// or repeated field, a record kind or width the field cannot take, a
// count that overruns the section, leftover bytes — is ErrCorruptSlab,
// and no allocation exceeds eight bytes per byte of section.
func Attach(header any, section []byte) (any, error) {
	if len(section) == 0 {
		return header, nil
	}
	wt, rv := wireTypeOf(header)
	corrupt := func(field uint64, what string) (any, error) {
		return nil, fmt.Errorf("%w: %s: %s (field %d)", ErrCorruptSlab, wt.label, what, field)
	}
	if wt.kinds == nil {
		return corrupt(0, "the message type has no vector field")
	}
	out := reflect.New(rv.Type()).Elem()
	out.Set(rv)
	prevField, prevKey := -1, ""
	for rest := section; len(rest) > 0; {
		field, n := binary.Uvarint(rest)
		if n <= 0 || field >= uint64(len(wt.kinds)) || wt.kinds[field] == 0 {
			return corrupt(field, "not a vector field")
		}
		rest = rest[n:]
		kind := wt.kinds[field]
		if len(rest) == 0 || rest[0] > 1 || (rest[0] == 1) != (kind == slabMapU64) {
			return corrupt(field, "record kind does not match the field")
		}
		rest = rest[1:]
		key := ""
		if kind == slabMapU64 {
			klen, n := binary.Uvarint(rest)
			if n <= 0 || klen > uint64(len(rest)-n) {
				return corrupt(field, "key overruns the section")
			}
			key = string(rest[n : n+int(klen)])
			rest = rest[n+int(klen):]
		}
		if int(field) < prevField || (int(field) == prevField && (kind != slabMapU64 || key <= prevKey)) {
			return corrupt(field, "repeated or out of order")
		}
		prevField, prevKey = int(field), key
		if len(rest) == 0 {
			return corrupt(field, "truncated record")
		}
		width := int(rest[0])
		if (width != 1 && width != 2 && width != 4 && width != 8) || width > int(kind) {
			return corrupt(field, "bad element width")
		}
		count, n := binary.Uvarint(rest[1:])
		if n <= 0 || count > uint64(len(rest)-1-n)/uint64(width) {
			return corrupt(field, "element count overruns the section")
		}
		data := rest[1+n : 1+n+int(count)*width]
		rest = rest[1+n+len(data):]

		switch fv := out.Field(int(field)); kind {
		case 2:
			fv.Set(reflect.ValueOf(unpack[uint16](data, width)))
		case 4:
			fv.Set(reflect.ValueOf(unpack[uint32](data, width)))
		case 8:
			fv.Set(reflect.ValueOf(unpack[uint64](data, width)))
		case slabMapU64:
			if fv.IsNil() {
				fv.Set(reflect.MakeMap(fv.Type()))
			}
			fv.Interface().(map[string][]uint64)[key] = unpack[uint64](data, width)
		}
	}
	return out.Interface(), nil
}

type slabElem interface{ uint16 | uint32 | uint64 }

// orAll ORs every element together: the result has the same highest set
// bit as the largest element, which is all the width rule needs.
func orAll[T slabElem](v []T) uint64 {
	var acc T
	for _, x := range v {
		acc |= x
	}
	return uint64(acc)
}

func uvarintLen(x int) int { return (bits.Len(uint(x)|1) + 6) / 7 }

// pack writes v into dst (len(v)·width bytes) little-endian. While
// eight bytes remain it stores whole words: the bytes past an element's
// width land where the next element then overwrites them.
func pack[T slabElem](dst []byte, v []T, width int) {
	i := 0
	for ; len(dst) >= 8; i++ {
		binary.LittleEndian.PutUint64(dst, uint64(v[i]))
		dst = dst[width:]
	}
	for ; i < len(v); i++ {
		for b := 0; b < width; b++ {
			dst[b] = byte(uint64(v[i]) >> (8 * b))
		}
		dst = dst[width:]
	}
}

// unpack reads len(src)/width little-endian elements into a new slice
// (nil when there are none), loading whole words while eight bytes
// remain. width never exceeds the size of T.
func unpack[T slabElem](src []byte, width int) []T {
	if len(src) == 0 {
		return nil
	}
	out := make([]T, len(src)/width)
	mask := ^uint64(0) >> (64 - 8*width)
	i := 0
	for ; len(src) >= 8; i++ {
		out[i] = T(binary.LittleEndian.Uint64(src) & mask)
		src = src[width:]
	}
	for ; i < len(out); i++ {
		for b := width - 1; b >= 0; b-- {
			out[i] = out[i]<<8 | T(src[b])
		}
		src = src[width:]
	}
	return out
}
