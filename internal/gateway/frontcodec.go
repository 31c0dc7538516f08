package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"

	"prism/internal/domain"
)

// appendResponse appends json.Marshal(r) to b: the same field order and
// omitempty rules, map keys sorted as their decimal strings.
func appendResponse(b []byte, r *Response) []byte {
	b = append(b, '{')
	if r.ID != "" {
		b = append(appendString(append(b, `"id":`...), r.ID), ',')
	}
	b = strconv.AppendBool(append(b, `"ok":`...), r.OK)
	for _, f := range [...]struct{ key, val string }{{`,"code":`, r.Code}, {`,"err":`, r.Err}, {`,"ticket":`, r.Ticket}} {
		if f.val != "" {
			b = appendString(append(b, f.key...), f.val)
		}
	}
	if r.Done {
		b = append(b, `,"done":true`...)
	}
	if len(r.Cells) > 0 {
		b = append(b, `,"cells":[`...)
		var od domain.Odometer // an answer's cells ascend
		for i, c := range r.Cells {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, od.Next(c)...)
		}
		b = append(b, ']')
	}
	if r.Count != 0 {
		b = strconv.AppendInt(append(b, `,"count":`...), int64(r.Count), 10)
	}
	if len(r.Sums) > 0 {
		b = appendObject(append(b, `,"sums":`...), r.Sums, func(col string) string { return col }, appendCellMap)
	}
	if len(r.Counts) > 0 {
		b = appendCellMap(append(b, `,"counts":`...), r.Counts)
	}
	if len(r.Extreme) > 0 {
		b = appendCellMap(append(b, `,"extreme":`...), r.Extreme)
	}
	if r.Global != nil {
		b = strconv.AppendUint(append(b, `,"global":`...), *r.Global, 10)
	}
	if r.QueueMS != 0 {
		b = strconv.AppendInt(append(b, `,"queue_ms":`...), r.QueueMS, 10)
	}
	if r.ExecMS != 0 {
		b = strconv.AppendInt(append(b, `,"exec_ms":`...), r.ExecMS, 10)
	}
	return append(b, '}')
}

// appendString quotes plain printable ASCII and leaves every other string
// to json.Marshal: HTML escapes, control bytes and invalid UTF-8 included.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendObject writes m as encoding/json writes a map: null when nil,
// else its entries in the order of their keys' strings, each value by val.
func appendObject[K comparable, V any](b []byte, m map[K]V, key func(K) string, val func([]byte, V) []byte) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	type entry struct {
		key string
		val V
	}
	es := make([]entry, 0, len(m))
	for k, v := range m {
		es = append(es, entry{key(k), v})
	}
	slices.SortFunc(es, func(x, y entry) int { return strings.Compare(x.key, y.key) })
	b = append(b, '{')
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = val(append(appendString(b, e.key), ':'), e.val)
	}
	return append(b, '}')
}

func appendCellMap(b []byte, m map[uint64]uint64) []byte {
	return appendObject(b, m, func(k uint64) string { return strconv.FormatUint(k, 10) },
		func(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) })
}

// replySize bounds r's frame for the pool: cells at the largest one's
// width, map entries at the widest (an escaped string may grow it).
func replySize(r *Response) int {
	const entry = len(`"18446744073709551615":18446744073709551615,`)
	n := 256 + len(r.Err) + entry*(len(r.Counts)+len(r.Extreme))
	if len(r.Cells) > 0 {
		n += (len(strconv.FormatUint(slices.Max(r.Cells), 10)) + 1) * len(r.Cells)
	}
	for col, m := range r.Sums {
		n += len(col) + 8 + entry*len(m)
	}
	return n
}

// decodeResponse parses a reply frame as json.Unmarshal does; on an
// error the Response is json.Unmarshal's partial one.
func decodeResponse(frame []byte) (*Response, error) {
	if r, ok := fastResponse(frame); ok {
		return r, nil
	}
	r := new(Response)
	return r, json.Unmarshal(frame, r)
}

// fastResponse decodes the frames appendResponse writes, in any key order
// and spacing, in one forward pass. It refuses anything else, leaving it
// to json.Unmarshal: an escape or non-ASCII byte in a string, a key that
// is unknown, repeated or differently cased, a null, a sign, fraction,
// exponent or leading zero, a 20-digit integer, trailing bytes.
func fastResponse(frame []byte) (*Response, bool) {
	s := scanner{b: frame}
	r := new(Response)
	type field struct {
		key  string
		read func() bool
	}
	fields := [...]field{
		{"id", func() (ok bool) { r.ID, ok = s.str(); return }},
		{"ok", func() (ok bool) { r.OK, ok = s.boolean(); return }},
		{"code", func() (ok bool) { r.Code, ok = s.str(); return }},
		{"err", func() (ok bool) { r.Err, ok = s.str(); return }},
		{"ticket", func() (ok bool) { r.Ticket, ok = s.str(); return }},
		{"done", func() (ok bool) { r.Done, ok = s.boolean(); return }},
		{"cells", func() (ok bool) { r.Cells, ok = s.cells(); return }},
		{"count", func() bool { n, ok := s.uint(math.MaxInt); r.Count = int(n); return ok }},
		{"sums", func() (ok bool) {
			r.Sums, ok = object(&s, func(col string) (string, error) { return col, nil }, s.cellMap)
			return
		}},
		{"counts", func() (ok bool) { r.Counts, ok = s.cellMap(); return }},
		{"extreme", func() (ok bool) { r.Extreme, ok = s.cellMap(); return }},
		{"global", func() (ok bool) { r.Global = new(uint64); *r.Global, ok = s.uint(math.MaxUint64); return }},
		{"queue_ms", func() bool { n, ok := s.uint(math.MaxInt64); r.QueueMS = int64(n); return ok }},
		{"exec_ms", func() bool { n, ok := s.uint(math.MaxInt64); r.ExecMS = int64(n); return ok }},
	}
	var seen uint16
	ok := s.list('{', '}', func() bool {
		key, ok := s.str()
		k := slices.IndexFunc(fields[:], func(f field) bool { return f.key == key })
		if !ok || k < 0 || seen&(1<<k) != 0 || !s.next(':') {
			return false
		}
		seen |= 1 << k
		return fields[k].read()
	})
	s.ws()
	return r, ok && s.i == len(s.b)
}

// scanner is fastResponse's cursor over a frame.
type scanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
}

// next consumes c, after whitespace, if it comes next.
func (s *scanner) next(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// list reads open, items separated by commas, and close.
func (s *scanner) list(open, close byte, item func() bool) bool {
	if !s.next(open) {
		return false
	}
	for first := true; !s.next(close); first = false {
		if (!first && !s.next(',')) || !item() {
			return false
		}
	}
	return true
}

// str reads a string of printable ASCII without escapes.
func (s *scanner) str() (string, bool) {
	if !s.next('"') {
		return "", false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := string(s.b[s.i:j])
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", false
		}
	}
	return "", false
}

func (s *scanner) boolean() (bool, bool) {
	s.ws()
	v := bytes.HasPrefix(s.b[s.i:], []byte("true"))
	lit := strconv.FormatBool(v)
	if !bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
		return false, false
	}
	s.i += len(lit)
	return v, true
}

// uint reads a plain decimal integer up to max: no sign, no leading zero,
// at most 19 digits so it cannot wrap. What follows is the caller's.
func (s *scanner) uint(max uint64) (uint64, bool) {
	s.ws()
	start, n := s.i, uint64(0)
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9; s.i++ {
		n = n*10 + uint64(s.b[s.i]-'0')
	}
	d := s.i - start
	return n, d > 0 && d < 20 && (d == 1 || s.b[start] != '0') && n <= max
}

// cells reads an array of integers, sized by its commas up front.
func (s *scanner) cells() ([]uint64, bool) {
	var out []uint64
	if end := bytes.IndexByte(s.b[s.i:], ']'); end >= 0 {
		out = make([]uint64, 0, bytes.Count(s.b[s.i:s.i+end], []byte{','})+1)
	}
	ok := s.list('[', ']', func() bool {
		v, ok := s.uint(math.MaxUint64)
		out = append(out, v)
		return ok
	})
	return out, ok
}

// object reads a JSON object into a map, refusing a repeated key.
func object[K comparable, V any](s *scanner, key func(string) (K, error), val func() (V, bool)) (map[K]V, bool) {
	m := make(map[K]V)
	return m, s.list('{', '}', func() bool {
		str, ok := s.str()
		k, err := key(str)
		if !ok || err != nil || !s.next(':') {
			return false
		}
		n := len(m)
		m[k], ok = val()
		return ok && len(m) > n
	})
}

// cellMap reads integers keyed by integers parsed as encoding/json does.
func (s *scanner) cellMap() (map[uint64]uint64, bool) {
	return object(s, func(k string) (uint64, error) { return strconv.ParseUint(k, 10, 64) },
		func() (uint64, bool) { return s.uint(math.MaxUint64) })
}
