// Package domain implements the publicly known domain encoding of the
// set attribute A_c (paper §5.1 Step 1): a "hash function" that maps each
// distinct domain value to a unique cell of the χ table of length
// b = |Dom(A_c)|. The paper requires the map to be collision-free ("each
// cell must contain only a single one corresponding to the unique value"),
// i.e. a perfect map over the known domain — we implement it as the rank
// of the value in the ordered domain, which every owner can compute
// locally from the public domain description (§4 owner assumption (v)).
//
// Product combines several attribute domains into one cell space for
// multi-attribute PSI (paper §6.6).
package domain

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Domain is the ordered, publicly known domain of one attribute.
// It is either an integer interval [lo, hi] or an explicit sorted list of
// categorical values.
type Domain struct {
	lo, hi uint64 // used when names == nil
	names  []string
	index  map[string]uint64
}

// NewIntRange returns the integer domain {lo, lo+1, ..., hi}.
func NewIntRange(lo, hi uint64) (*Domain, error) {
	if hi < lo {
		return nil, fmt.Errorf("domain: empty range [%d, %d]", lo, hi)
	}
	return &Domain{lo: lo, hi: hi}, nil
}

// NewValues returns a categorical domain over the given values,
// de-duplicated and sorted so that every owner derives the same cell
// numbering from the same public value set.
func NewValues(values []string) (*Domain, error) {
	if len(values) == 0 {
		return nil, errors.New("domain: no values")
	}
	names := append([]string(nil), values...)
	sort.Strings(names)
	uniq := names[:1]
	for _, v := range names[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	idx := make(map[string]uint64, len(uniq))
	for i, v := range uniq {
		idx[v] = uint64(i)
	}
	return &Domain{names: uniq, index: idx}, nil
}

// Size returns b = |Dom(A_c)|, the χ table length.
func (d *Domain) Size() uint64 {
	if d.names != nil {
		return uint64(len(d.names))
	}
	return d.hi - d.lo + 1
}

// Categorical reports whether the domain holds string values.
func (d *Domain) Categorical() bool { return d.names != nil }

// CellOfInt maps an integer value to its cell, if in range.
func (d *Domain) CellOfInt(v uint64) (uint64, bool) {
	if d.names != nil || v < d.lo || v > d.hi {
		return 0, false
	}
	return v - d.lo, true
}

// CellOfString maps a categorical value to its cell.
func (d *Domain) CellOfString(s string) (uint64, bool) {
	if d.index == nil {
		return 0, false
	}
	c, ok := d.index[s]
	return c, ok
}

// IntAt returns the integer value at the given cell.
func (d *Domain) IntAt(cell uint64) uint64 { return d.lo + cell }

// StringAt returns the categorical value at the given cell.
func (d *Domain) StringAt(cell uint64) string { return d.names[cell] }

// Label renders the value at cell as a string for either kind of domain.
func (d *Domain) Label(cell uint64) string {
	if d.names != nil {
		return d.names[cell]
	}
	return strconv.FormatUint(d.lo+cell, 10)
}

// Labels renders the values at cells, parallel to cells: Label at each.
// An integer domain writes every label into one buffer, through an
// Odometer, and cuts each out of the one string it makes. So an answer
// of k cells costs three allocations, not k.
func (d *Domain) Labels(cells []uint64) []string {
	out := make([]string, len(cells))
	if d.names != nil {
		for i, c := range cells {
			out[i] = d.names[c]
		}
		return out
	}
	widths := make([]uint8, len(cells)) // a uint64 has at most 20 digits
	var (
		sb  strings.Builder
		od  Odometer
		buf [20]byte
	)
	sb.Grow(len(cells) * len(strconv.AppendUint(buf[:0], d.hi, 10)))
	for i, c := range cells {
		digits := od.Next(d.lo + c)
		sb.Write(digits)
		widths[i] = uint8(len(digits))
	}
	all, at := sb.String(), 0
	for i, w := range widths {
		out[i] = all[at : at+int(w)]
		at += int(w)
	}
	return out
}

// Odometer writes a run of numbers in decimal, fastest when they ascend
// in small steps, as the cells of an answer do: between close ascending
// numbers it advances the previous number's digits like an odometer
// instead of formatting the next anew. The zero Odometer is ready.
type Odometer struct {
	buf  [20]byte // the previous number's digits, buf[:n]
	n    int
	prev uint64
}

// odometerReach is the largest step between consecutive numbers that an
// Odometer takes by advancing digits; a larger one is formatted anew.
const odometerReach = 1 << 12

// Next returns v's decimal digits, valid until the next call.
func (o *Odometer) Next(v uint64) []byte {
	if o.n == 0 || v < o.prev || v-o.prev > odometerReach || !advance(o.buf[:o.n], v-o.prev) {
		o.n = len(strconv.AppendUint(o.buf[:0], v, 10))
	}
	o.prev = v
	return o.buf[:o.n]
}

// advance adds delta to the decimal number digits in place, reporting
// false (digits then garbled) when the sum needs one more digit.
func advance(digits []byte, delta uint64) bool {
	for i := len(digits) - 1; delta > 0; i-- {
		if i < 0 {
			return false
		}
		s := uint64(digits[i]-'0') + delta
		digits[i], delta = byte('0'+s%10), s/10
	}
	return true
}

// BuildChi builds the χ bitmap over b cells: chi[cell] = 1 iff cell
// appears in cells. Cells outside [0, b) are rejected.
func BuildChi(b uint64, cells []uint64) ([]uint16, error) {
	chi := make([]uint16, b)
	for _, c := range cells {
		if c >= b {
			return nil, fmt.Errorf("domain: cell %d outside table of %d cells", c, b)
		}
		chi[c] = 1
	}
	return chi, nil
}

// Complement returns χ̄ with every bit flipped (paper §5.2 Step 1).
func Complement(chi []uint16) []uint16 {
	out := make([]uint16, len(chi))
	for i, v := range chi {
		out[i] = 1 - v
	}
	return out
}

// Product is the combined cell space of several attribute domains for
// multi-attribute PSI (§6.6): b = Π_i |Dom(A_i)|, row-major layout.
type Product struct {
	dims    []*Domain
	strides []uint64
	size    uint64
}

// NewProduct combines the given domains. Overflow of the product size is
// rejected.
func NewProduct(dims ...*Domain) (*Product, error) {
	if len(dims) == 0 {
		return nil, errors.New("domain: empty product")
	}
	p := &Product{dims: dims, strides: make([]uint64, len(dims)), size: 1}
	for i := len(dims) - 1; i >= 0; i-- {
		p.strides[i] = p.size
		s := dims[i].Size()
		if s != 0 && p.size > (1<<62)/s {
			return nil, errors.New("domain: product domain too large")
		}
		p.size *= s
	}
	return p, nil
}

// Size returns the number of cells in the product space.
func (p *Product) Size() uint64 { return p.size }

// Dims returns the component domains.
func (p *Product) Dims() []*Domain { return p.dims }

// Cell combines per-attribute cells into the product cell.
func (p *Product) Cell(cells []uint64) (uint64, error) {
	if len(cells) != len(p.dims) {
		return 0, fmt.Errorf("domain: got %d coords for %d dims", len(cells), len(p.dims))
	}
	var out uint64
	for i, c := range cells {
		if c >= p.dims[i].Size() {
			return 0, fmt.Errorf("domain: coord %d out of range", i)
		}
		out += c * p.strides[i]
	}
	return out, nil
}

// Split decomposes a product cell into per-attribute cells.
func (p *Product) Split(cell uint64) []uint64 {
	out := make([]uint64, len(p.dims))
	for i := range p.dims {
		out[i] = cell / p.strides[i] % p.dims[i].Size()
	}
	return out
}
