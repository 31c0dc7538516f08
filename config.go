package prism

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

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
	// Threads is each server's worker-pool width (Figure 3 sweep).
	Threads int
	// Groups partitions the cell domain across this many independent
	// server groups: each group is a full S0/S1/S2 triple serving a
	// contiguous cell range, with its own permutations and share streams
	// but deployment-global masking parameters (so cross-group extreme
	// results stay comparable). Owners route each query window to the
	// owning group and run groups concurrently; results merge
	// owner-side. 0 or 1 → the classic single-group deployment
	// (bit-for-bit identical wiring and share streams).
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
	// connection. With disk-backed servers, set a HotChunks budget
	// alongside small windows so hot chunks are read from disk once;
	// without the cache every window re-reads its overlapping chunks.
	ShardCells uint64
	// HotChunks, when > 0, turns on each disk-backed server's per-table
	// hot-chunk cache (DiskDir set) with this byte budget: χ-shares and
	// aggregation columns are cached at chunk granularity per table
	// epoch — invalidated when any owner re-outsources or the table is
	// dropped — and least-recently-used chunks are evicted past the
	// budget, so query-path residency stays O(budget) no matter how
	// large the domain grows. 0 (the default) is cache off: every query
	// reads the store, which is what measures true per-query fetch
	// times (the Figure 3 data-fetch series).
	HotChunks uint64
	// ChunkCells sets the share store's chunk size in cells for newly
	// written columns (disk-backed mode). 0 → sharestore's default
	// (64Ki cells). Pair it with ShardCells — chunks aligned to the
	// shard windows make every streamed upload window a whole-chunk
	// write and every shard query a minimal chunk fetch.
	ChunkCells uint64
	// DeltaMaxEntries triggers a compaction pass on a server once a
	// table's merged-but-uncompacted delta entries (incremental updates,
	// Owner.Update) reach this count: the base columns are rewritten
	// with the overlay values and the absorbed delta-log segments are
	// deleted. 0 disables threshold-triggered compaction; updates then
	// accumulate in the overlay until CompactInterval (or a manual
	// CompactTables call) folds them down.
	DeltaMaxEntries int
	// CompactInterval runs each server's compaction pass on a timer
	// regardless of delta density, bounding how long the delta log can
	// grow under a trickle of updates. 0 disables the timer. Timer-based
	// servers need System.Close to stop their tickers.
	CompactInterval time.Duration
	// Seed makes the whole system deterministic; zero → fresh entropy.
	Seed [32]byte
	// DiskDir, when set, backs each server with an on-disk share store
	// under DiskDir/server-<i>; queries then measure real fetch time.
	DiskDir string
	// AutoRecover makes each disk-backed server reload its serving state
	// from the share store's table manifests at construction time (the
	// cold-boot recovery path, CLI: prism-server -recover): tables whose
	// manifests validate against the chunk segments on disk are served
	// again without any owner re-outsourcing, corrupt or
	// partially-promoted tables are quarantined under the store's
	// .quarantine/ area, and crashed mid-upload assemblies are reclaimed.
	// NewLocalSystem fails only on store-scan I/O errors — per-table
	// problems quarantine instead of failing boot. Requires DiskDir.
	AutoRecover bool
	// EncodeWire forces every message on the in-process transport
	// through the wire frame codec, exercising exactly what the TCP
	// transport sends.
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
	if c.DeltaMaxEntries < 0 || c.CompactInterval < 0 {
		return errors.New("prism: DeltaMaxEntries and CompactInterval must be >= 0")
	}
	if c.AutoRecover && c.DiskDir == "" {
		// Mirror prism-server, which rejects -recover without -store:
		// silently booting empty would defeat the whole point.
		return errors.New("prism: AutoRecover requires DiskDir")
	}
	return nil
}

func (c *Config) seed() prg.Seed { return prg.Seed(c.Seed) }
