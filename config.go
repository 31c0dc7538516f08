package prism

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"prism/internal/domain"
	"prism/internal/prg"
)

// Domain is the publicly known domain of the set attribute A_c — or, for
// multi-attribute PSI (§6.6), the product of several attribute domains.
// All owners must construct it from the same public description so that
// cell numbering aligns (paper §4, owner assumption (v)).
type Domain struct {
	d *domain.Domain
	p *domain.Product
}

// IntDomain returns the integer domain {lo, ..., hi} — e.g. the paper's
// Orderkey domains 1..5M and 1..20M.
func IntDomain(lo, hi uint64) (*Domain, error) {
	d, err := domain.NewIntRange(lo, hi)
	if err != nil {
		return nil, err
	}
	return &Domain{d: d}, nil
}

// ValueDomain returns a categorical domain (e.g. disease names).
// Values are de-duplicated and sorted.
func ValueDomain(values ...string) (*Domain, error) {
	d, err := domain.NewValues(values)
	if err != nil {
		return nil, err
	}
	return &Domain{d: d}, nil
}

// ProductDomain combines several attribute domains into one cell space
// for multi-attribute PSI (paper §6.6): b = Π|Dom(A_i)|. Rows then carry
// one key per attribute in Keys (string keys for categorical dims,
// decimal integers for integer dims).
func ProductDomain(dims ...*Domain) (*Domain, error) {
	raw := make([]*domain.Domain, len(dims))
	for i, d := range dims {
		if d == nil || d.d == nil {
			return nil, errors.New("prism: product dimensions must be scalar domains")
		}
		raw[i] = d.d
	}
	p, err := domain.NewProduct(raw...)
	if err != nil {
		return nil, err
	}
	return &Domain{p: p}, nil
}

// Size returns the number of cells b = |Dom(A_c)|.
func (d *Domain) Size() uint64 {
	if d.p != nil {
		return d.p.Size()
	}
	return d.d.Size()
}

// Label renders the value at a cell ("a|b" for product domains).
func (d *Domain) Label(cell uint64) string {
	if d.p != nil {
		coords := d.p.Split(cell)
		parts := make([]string, len(coords))
		for i, c := range coords {
			parts[i] = d.p.Dims()[i].Label(c)
		}
		return strings.Join(parts, "|")
	}
	return d.d.Label(cell)
}

// labels renders Label at every cell, parallel to cells.
func (d *Domain) labels(cells []uint64) []string {
	if d.p == nil {
		return d.d.Labels(cells)
	}
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = d.Label(c)
	}
	return out
}

// cellOfRow maps a row's key(s) to the domain cell.
func (d *Domain) cellOfRow(r Row) (uint64, error) {
	if d.p != nil {
		dims := d.p.Dims()
		if len(r.Keys) != len(dims) {
			return 0, fmt.Errorf("prism: row has %d keys for a %d-attribute domain", len(r.Keys), len(dims))
		}
		coords := make([]uint64, len(dims))
		for i, dim := range dims {
			var cell uint64
			var ok bool
			if dim.Categorical() {
				cell, ok = dim.CellOfString(r.Keys[i])
			} else {
				v, err := strconv.ParseUint(r.Keys[i], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("prism: key %q is not an integer for dimension %d", r.Keys[i], i)
				}
				cell, ok = dim.CellOfInt(v)
			}
			if !ok {
				return 0, fmt.Errorf("prism: key %q outside dimension %d", r.Keys[i], i)
			}
			coords[i] = cell
		}
		return d.p.Cell(coords)
	}
	var cell uint64
	var ok bool
	if d.d.Categorical() {
		cell, ok = d.d.CellOfString(r.StrKey)
	} else {
		cell, ok = d.d.CellOfInt(r.IntKey)
	}
	if !ok {
		return 0, fmt.Errorf("prism: row key %q/%d outside the public domain", r.StrKey, r.IntKey)
	}
	return cell, nil
}

// Row is one tuple of an owner's private table. For scalar domains set
// IntKey or StrKey (matching the domain kind); for product domains set
// Keys with one entry per attribute. Aggs holds the A_x values.
type Row struct {
	IntKey uint64
	StrKey string
	Keys   []string
	Aggs   map[string]uint64
}

// Config assembles a Prism deployment.
type Config struct {
	// Owners is m, the number of DB owners. The paper targets m > 2 but
	// two-owner deployments work (Table 13 uses them).
	Owners int
	// Domain of the set attribute.
	Domain *Domain
	// AggColumns lists the aggregation columns every owner will
	// outsource (Shamir-shared per-cell sums, plus a count column).
	AggColumns []string
	// MaxAggValue bounds every value submitted to exemplary
	// aggregations: individual A_x values for max/min, and per-owner
	// per-cell totals for median (the paper's median aggregates per
	// owner first, §6.4). It sizes the big modulus Q for the
	// order-preserving masking. 0 → 2^20. Keep it as tight as the data
	// allows: Q grows like MaxAggValue^(m+2).
	MaxAggValue uint64
	// Verify outsources χ̄ and the v-columns and enables result
	// verification on every query.
	Verify bool
	// Buckets also outsources §6.6's bucket tree (fanout 8) over each
	// owner's χ, one per server group over the group's cells, so
	// BucketizedPSI (OpBPSI) can answer; every update re-uploads the
	// tree. Without it OpBPSI fails with the servers' unknown-table
	// error. The tree is never verified, whatever Verify says.
	Buckets bool
	// Threads is each server's worker-pool width (Figure 3 sweep).
	Threads int
	// Groups partitions the cell domain across this many independent
	// server groups: each group is a full S0/S1/S2 triple serving a
	// contiguous cell range, with its own permutations and share streams
	// but deployment-global masking parameters (so cross-group extreme
	// results stay comparable). Every group runs a query's whole round
	// script on its own range, concurrently and without waiting for the
	// other groups between rounds; the answers merge owner-side. 0 → 1,
	// the paper's single triple.
	Groups int
	// MaxInflight bounds how many scheduled queries (QueryAsync /
	// QueryBatch) execute simultaneously. 0 → GOMAXPROCS. Fixed for the
	// System's lifetime.
	MaxInflight int
	// ShardCells is the window size every O(b) owner↔server exchange —
	// table uploads, PSI/PSU/count vectors, aggregation selectors and
	// replies — moves in: windows of at most ShardCells cells, each its
	// own frame over the multiplexed transport, with partial results
	// merged incrementally owner-side. 0 (the default) → one window of
	// b cells. A smaller window bounds per-request frame size (and
	// per-request buffer lifetime) regardless of the domain, so domains
	// whose b-cell frames would exceed transport.MaxFrameBytes become
	// servable. A query keeps at most 8 windows in flight per server
	// connection. Disk-backed servers write ShardCells-cell chunks (0 →
	// sharestore's default of 64Ki cells), so every upload and query
	// window is a whole number of chunks; a query window reads the owner
	// sum its server keeps per table epoch, whatever the window size.
	ShardCells uint64
	// HotChunks is ignored.
	//
	// Deprecated: there is no chunk cache to size. Every server keeps,
	// per table epoch, one owner sum of each queried column (1/M of the
	// table's bytes) and the owner chunks pending updates land in.
	HotChunks uint64
	// DeltaMaxEntries triggers a compaction pass on a server once a
	// table's merged-but-uncompacted delta entries (incremental updates,
	// Owner.Update) reach this count: the overlay values are patched
	// into the base chunks in place and the sealed delta-log files are
	// deleted. 0 disables threshold-triggered compaction; updates then
	// accumulate in the overlay until a CompactTables call folds them
	// down.
	DeltaMaxEntries int
	// Seed makes the whole system deterministic; zero → fresh entropy.
	Seed [32]byte
	// DiskDir, when set, backs each server with an on-disk share store
	// under DiskDir/g<g>-server-<i> (group g, server i); queries then
	// measure real fetch time.
	// A System over a DiskDir an earlier System wrote resumes serving
	// its tables: each server reloads them from the store's manifests
	// without any owner re-outsourcing, quarantines corrupt tables under
	// the store's .quarantine/ area and reclaims the columns of uploads
	// that never reached their commit (ServerEngine(φ).
	// RecoveryReport says which). NewLocalSystem fails on a store of
	// another format epoch (serverengine.ErrStoreEpoch, nothing in it
	// touched) and on store-scan I/O errors; every other per-table
	// problem quarantines instead of failing boot.
	DiskDir string
	// EncodeWire is ignored.
	//
	// Deprecated: every System puts every message through the wire
	// frame codec, exactly what the TCP transport sends.
	EncodeWire bool
	// Trace records a per-phase timeline for every query: the system
	// mints one trace id per query, the engines stamp it onto the wire
	// requests, and every site (owner exchange, server fetch/patch/
	// compute, announcer rounds) annotates spans the system assembles
	// into a System.QueryTrace(id) timeline. Off by default — traced
	// queries pay a few spans per request on the wire.
	Trace bool
}

// tableName names the one table a System outsources and queries.
const tableName = "main"

func (c *Config) normalize() error {
	if c.Owners < 2 {
		return errors.New("prism: need at least 2 owners")
	}
	if c.Domain == nil {
		return errors.New("prism: config needs a Domain")
	}
	if c.MaxAggValue == 0 {
		c.MaxAggValue = 1 << 20
	}
	if c.Groups < 0 {
		return errors.New("prism: Groups must be >= 0")
	}
	if c.Groups <= 1 {
		c.Groups = 1
	}
	if uint64(c.Groups) > c.Domain.Size() {
		return fmt.Errorf("prism: %d groups cannot tile a %d-cell domain", c.Groups, c.Domain.Size())
	}
	if c.DeltaMaxEntries < 0 {
		return errors.New("prism: DeltaMaxEntries must be >= 0")
	}
	return nil
}

func (c *Config) seed() prg.Seed { return prg.Seed(c.Seed) }
