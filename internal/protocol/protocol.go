// Package protocol defines the wire messages exchanged between Prism
// entities (owners ↔ servers ↔ announcer). Every round of the paper is
// one request/reply pair: a result vector and the §5.2 vector that
// verifies it travel together (PSIReply and CountReply carry Out + Vout,
// AggRequest Z + VZ). All types are gob-encodable and registered for
// transport over the generic envelope; their bulk share vectors bypass
// gob and travel as raw slabs (slab.go).
package protocol

import (
	"encoding/gob"
	"fmt"
)

// TableSpec describes one outsourced table (paper Table 11 layout).
type TableSpec struct {
	Name      string
	B         uint64   // cells per column
	AggCols   []string // Shamir sum columns (PK, LN, SK, DT, ...)
	HasVerify bool     // χ̄ and v-columns present
	HasCount  bool     // per-cell tuple-count column (aOK) present
	Plain     bool     // stored in natural cell order (bucket-tree levels)
}

// Range selects the cell window [Offset, Offset+Count) one exchange
// carries, so a query over a b-cell domain can move as many bounded
// frames instead of one O(b) frame. Owners stamp it on every request;
// the whole table is the window {0, b}. The zero value (Count == 0) is
// what owners older than the explicit-range wire send — gob omits
// zero-valued fields — and servers read it as {0, b} too.
//
// Which positions the window indexes depends on the exchange: Store,
// PSI, Agg and unpermuted PSU shard over stored (owner-permuted) cell
// positions; Count and permuted PSU shard over positions of the
// server-permuted reply vector, so the two servers' shard replies stay
// aligned pair-wise and a verified count can still match Out against
// Vout position by position (Equation 1).
type Range struct {
	Offset uint64
	Count  uint64
}

// End returns Offset+Count, the first cell past the window.
func (r Range) End() uint64 { return r.Offset + r.Count }

// Sharded reports whether the range is set, i.e. not the zero value an
// old owner sends for the whole table.
func (r Range) Sharded() bool { return r.Count > 0 }

// Validate checks the window lies within a b-cell vector.
func (r Range) Validate(b uint64) error {
	if r.Count == 0 {
		return fmt.Errorf("protocol: empty shard range at offset %d", r.Offset)
	}
	if r.Offset >= b || r.Count > b-r.Offset {
		return fmt.Errorf("protocol: shard [%d, %d) outside domain of %d cells", r.Offset, r.End(), b)
	}
	return nil
}

// Stats carries per-request server-side timing so the benchmark harness
// can decompose time the way Figure 3 does (compute vs data fetch).
type Stats struct {
	FetchNS   int64 // time reading shares from the share store
	ComputeNS int64 // time in the oblivious compute loop
	PatchNS   int64 // time merging the delta overlay into fetched windows
	Cells     int   // cells processed
	CacheHits int   // column reads served by the hot-chunk cache
	// Spans carries the per-phase trace annotations of a traced request
	// (the request carried a non-empty TraceID). nil — and therefore
	// absent from the gob stream — for untraced queries. Because every
	// Stats merge goes through Add, spans from sharded multi-window
	// fan-outs and multi-group exchanges accumulate into the querier's
	// timeline without any extra wiring.
	Spans []Span
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.FetchNS += s2.FetchNS
	s.ComputeNS += s2.ComputeNS
	s.PatchNS += s2.PatchNS
	s.Cells += s2.Cells
	s.CacheHits += s2.CacheHits
	s.Spans = append(s.Spans, s2.Spans...)
}

// Span is one timed phase of a traced query: which phase ran (Name,
// e.g. "server:fetch"), where it ran (Site, e.g. "g1/s0", "owner/2",
// "announcer"), and when. StartNS is Unix nanoseconds so spans from
// different processes order on one timeline (clock skew between real
// hosts applies; within one process the ordering is exact).
type Span struct {
	Name    string
	Site    string
	StartNS int64
	DurNS   int64
	Note    string // free-form annotation, e.g. the sub-query id
}

// ---- Phase 1: data outsourcing (owner → server) ----

// StoreRequest uploads one owner's secret-shared table to one server.
// χ is stored permuted by PF_db1, χ̄ by PF_db2 (paper §5.2); all
// Shamir columns follow χ's order, v-columns follow χ̄'s order.
//
// Every column carries the Shard.Count cells at [Shard.Offset,
// Shard.End()) of the full Spec.B-cell table; the server assembles the
// windows and registers the table only once all cells have arrived, so
// queries never observe a half-uploaded epoch.
type StoreRequest struct {
	Owner int
	Group int // target server group (0 in single-group deployments)
	Spec  TableSpec
	Shard Range // the window this request carries; zero → {0, Spec.B}
	// UploadID identifies one upload attempt. Owners mint ids of
	// the form "<epoch>/<seq>" with seq increasing per attempt: a shard
	// carrying a newer id than the pending assembly supersedes it (a
	// retry after a failed or cancelled upload starts clean), while a
	// shard with an older seq of the same epoch — or a duplicate of an
	// attempt that already completed — is rejected, so in-flight
	// stragglers of an abandoned attempt can neither reset a newer
	// retry's assembly nor re-register stale data after it completed.
	// Attempts from different epochs (an owner restart) cannot be
	// ordered and resolve last-writer-wins. Ids that don't parse fall
	// back to plain last-attempt-supersedes, as does the empty id of
	// owners older than the explicit-range wire.
	UploadID  string
	ChiAdd    []uint16            // additive share of χ (servers 0,1)
	ChiBarAdd []uint16            // additive share of χ̄ (servers 0,1; verify only)
	SumCols   map[string][]uint64 // Shamir share (this server's point) per agg column
	VSumCols  map[string][]uint64 // verification copies in χ̄ order
	CountCol  []uint64            // Shamir share of per-cell tuple counts (aOK)
	VCountCol []uint64
}

// StoreReply acknowledges the upload. Cells is the number of cells the
// server now holds for this owner's table: the cumulative covered
// count, == Spec.B once the final window lands.
type StoreReply struct{ Cells uint64 }

// StoreDeltaRequest is one owner's incremental update for one server, the
// whole of it: absolute replacement share values for individual stored
// positions, covering tuple appends, value updates and deletes alike (a
// delete is just the shares of the cell's new χ/sum/count values). It is
// a sparse Store — the same six columns, each parallel to a position
// list instead of a window: Pos indexes the χ-order (PF_db1-permuted)
// columns, VPos the χ̄-order (PF_db2) verification columns, so a server
// never learns which natural cells changed, only that some stored
// positions did.
//
// The server validates the request whole, logs it as one durable segment
// under one sequence number and makes it visible in one step, so no read
// on that server sees a cell's χ without its χ̄. Its frame grows with the
// changed cells, not with the table; past the frame cap it fails at the
// sender (transport.ErrFrameTooLarge) and the caller splits the update.
// Deltas carry absolute values, not increments: applying one twice
// equals applying it once, which is what lets servers replay the log
// over any base generation (see the serverengine delta log and
// compactor) and owners re-ship an update a server refused.
type StoreDeltaRequest struct {
	Owner int
	Group int // target server group
	Table string

	Pos  []uint64            // stored (χ-order) positions, ascending
	Chi  []uint16            // additive χ share per Pos (servers 0,1)
	Sums map[string][]uint64 // Shamir sum share per agg column, parallel to Pos
	Cnt  []uint64            // Shamir count share per Pos (when the table has counts)

	VPos   []uint64            // χ̄-order positions, ascending (verify only)
	ChiBar []uint16            // additive χ̄ share per VPos (servers 0,1)
	VSums  map[string][]uint64 // verification sum shares, parallel to VPos
	VCnt   []uint64            // verification count shares per VPos
}

// StoreDeltaReply acknowledges one applied update. Entries is the number
// of per-position updates absorbed (both position spaces); Epoch is the
// table's current registration epoch — unchanged by the delta itself,
// bumped only when the background compactor folds the delta log into the
// base chunks.
type StoreDeltaReply struct {
	Entries int
	Epoch   uint64
}

// DropRequest removes a stored table (all owners) from a server.
type DropRequest struct{ Table string }

// DropReply acknowledges removal.
type DropReply struct{}

// ---- PSI (paper §5.1) ----

// PSIRequest asks a server for the PSI output vector over a table and,
// with Verify, for the §5.2 χ̄-side vector in the same reply — the query
// and its proof are one round, read from one table snapshot. Shard
// windows the stored cells of both vectors; the Cells frontier replaces
// it and cannot be verified (bucket-tree levels carry no χ̄).
type PSIRequest struct {
	Table   string
	QueryID string
	TraceID string   // non-empty → annotate the reply Stats with Spans
	Group   int      // target server group
	Shard   Range    // zero → the whole table
	Cells   []uint32 // nil → all cells; else the bucket-tree frontier (§6.6)
	Verify  bool
}

// PSIReply carries out_i = g^((Σ_j A(x_i)_j ⊖ A(m)) mod δ) mod η' in χ
// (PF_db1) stored order and, when asked, Vout_i = g^(Σ_j A(x̄_i)_j mod δ)
// mod η' in χ̄ (PF_db2) stored order: the two align per cell only after
// the owner un-permutes them (Equation 10).
type PSIReply struct {
	Out   []uint32 // values mod η' < 2^32 (params.CheckEtaPrime)
	Vout  []uint32 // nil unless Verify
	Stats Stats
}

// ---- PSI count (paper §6.5) ----

// CountRequest asks for the PF_s1-permuted PSI vector; with Verify also
// the PF_s2-permuted χ̄ vector, aligned under PF_i (Eq. 1). Shard, when
// set, windows the permuted reply vectors: Out covers positions
// [Offset, End()) of the PF_s1-permuted vector and Vout the same window
// of the PF_s2-permuted vector, so the pair stays aligned per position.
type CountRequest struct {
	Table   string
	QueryID string
	TraceID string // non-empty → annotate the reply Stats with Spans
	Group   int    // target server group
	Shard   Range  // window of the permuted vector; zero → all of it
	Verify  bool
}

// CountReply carries the permuted output (and verification) vectors.
type CountReply struct {
	Out   []uint32
	Vout  []uint32 // nil unless Verify
	Stats Stats
}

// ---- PSU (paper §7) ----

// PSURequest asks for the PRG-masked additive sums. QueryID doubles as
// the PRG nonce so both servers derive identical masks per query.
// Shard windows stored positions when Permute is false, and positions
// of the PF_s1-permuted output when Permute is true (a proper window's
// masks are then indexed by output position, the whole table's by
// stored position — both servers derive the same stream either way,
// which is all Equation 18 needs).
type PSURequest struct {
	Table   string
	QueryID string
	TraceID string // non-empty → annotate the reply Stats with Spans
	Group   int    // target server group
	Shard   Range  // zero → the whole vector
	Permute bool   // true → PF_s1-permuted output (PSU count mode)
}

// PSUReply carries out_i = ((Σ_j A(x_i)_j) · rand_i) mod δ.
type PSUReply struct {
	Out   []uint16
	Stats Stats
}

// ---- Aggregation round 2 (paper §6.1, §6.2) ----

// AggRequest carries the querier's Shamir-shared selector z and names the
// aggregation columns; the server returns Σ_j S(x_i2)_j · S(z_i).
// With Shard set, Z (and VZ) carry only the Shard.Count selector shares
// for stored cells [Offset, End()) — in χ (PF_db1) order for Z and χ̄
// (PF_db2) order for VZ — and the reply vectors cover the same window.
type AggRequest struct {
	Table     string
	QueryID   string
	TraceID   string // non-empty → annotate the reply Stats with Spans
	Group     int    // target server group
	Shard     Range  // zero → the whole table
	Cols      []string
	WithCount bool     // also aggregate the count column (average queries)
	Z         []uint64 // this server's share of z, χ (PF_db1) order
	VZ        []uint64 // selector share in χ̄ (PF_db2) order; nil → no verification
}

// AggReply carries degree-2 share vectors per requested column.
type AggReply struct {
	Sums    map[string][]uint64
	Counts  []uint64
	VSums   map[string][]uint64
	VCounts []uint64
	Stats   Stats
}

// ---- Max / Min / Median transport (paper §6.3, §6.4) ----

// ExtremeKind selects the exemplary aggregate.
type ExtremeKind int

// Exemplary aggregation kinds.
const (
	KindMax ExtremeKind = iota
	KindMin
	KindMedian
)

func (k ExtremeKind) String() string {
	switch k {
	case KindMax:
		return "max"
	case KindMin:
		return "min"
	case KindMedian:
		return "median"
	}
	return "unknown"
}

// The §6.3/§6.4 rounds are vector rounds: one exchange carries every
// result cell a group owns, k ≥ 1 of them in the query's (ascending)
// cell order, so the number of owner↔server and server↔announcer
// messages of a query depends on the number of groups, never on k. The
// first submit of a query id fixes k for that session; every later
// vector of the session must have the same length.

// ExtremeSubmitRequest carries owner i's additive shares of
// v_c = F(M_c)+r_c, one per result cell c, to one server (§6.3 Step 3).
type ExtremeSubmitRequest struct {
	QueryID string
	TraceID string // non-empty → trace the announcer round
	Kind    ExtremeKind
	Owner   int
	Group   int      // target server group
	VShares [][]byte // k big.Int byte strings, each a value in [0, Q)
}

// ExtremeSubmitReply reports whether the server has forwarded to S_a.
type ExtremeSubmitReply struct{ Forwarded bool }

// ExtremeFetchRequest polls a server for the announcer's result shares.
type ExtremeFetchRequest struct {
	QueryID string
	TraceID string // non-empty → annotate the reply with Spans
}

// ExtremeFetchReply carries this server's additive shares of the result
// value(s) of every cell and, for max/min, of each cell's winning
// (PF-permuted) slot index.
type ExtremeFetchReply struct {
	Ready bool
	// ValueShares holds k shares for max/min and odd-M median; for
	// even-M median 2k, cell c's two middle values at 2c and 2c+1.
	ValueShares [][]byte
	IndexShares []uint16 // k shares of index mod δ (max/min); empty for median
	Spans       []Span   // traced polls: the server's announcer-round wait
}

// AnnounceRequest is server φ → announcer: the PF-permuted M×k slot
// matrix of big shares, Slots[s][c] being slot s's share for cell c
// (§6.3 Step 4, once per cell).
type AnnounceRequest struct {
	QueryID   string
	Kind      ExtremeKind
	ServerIdx int
	Slots     [][][]byte
}

// AnnounceReply acknowledges receipt.
type AnnounceReply struct{ Have int }

// AnnounceFetchRequest is server φ → announcer, polling for its result
// shares once both slot matrices arrived.
type AnnounceFetchRequest struct {
	QueryID   string
	ServerIdx int
}

// AnnounceFetchReply carries server φ's additive shares of the result,
// laid out as in ExtremeFetchReply.
type AnnounceFetchReply struct {
	Ready       bool
	ValueShares [][]byte
	IndexShares []uint16
}

// ---- Max identity round (paper §6.3 Steps 5b-7) ----

// ClaimSubmitRequest carries owner i's additive shares of
// α_c = [M_c = z_c], one per result cell.
type ClaimSubmitRequest struct {
	QueryID string
	Owner   int
	Group   int // target server group
	Shares  []uint16
}

// ClaimSubmitReply acknowledges.
type ClaimSubmitReply struct{}

// ClaimFetchRequest polls for the assembled fpos matrix.
type ClaimFetchRequest struct{ QueryID string }

// ClaimFetchReply carries fpos^φ (§6.3 Step 6) for every cell: the M×k
// matrix in owner-major order, owner i's share for cell c at i·k+c.
type ClaimFetchReply struct {
	Ready bool
	Fpos  []uint16
}

// ---- serving-state probe ----

// ListTablesRequest asks a server which tables it currently serves.
// Owners use it after a server restart to probe "is my table still
// served?" without re-outsourcing — a recovered server answers with the
// tables it reloaded from its disk manifests.
type ListTablesRequest struct{}

// TableStatus describes one served table: its layout, which owners have
// completed outsourcing, and the server's registration epoch for it.
// The epoch increases on every registration event (an owner completing
// an upload, a re-outsource, a recovery adoption) and is persisted in
// the disk manifest, so it survives restarts: an owner that remembers
// the epoch from its last probe can cheaply detect both "table gone"
// and "table replaced since I last looked".
type TableStatus struct {
	Spec   TableSpec
	Owners []int
	Epoch  uint64
}

// ListTablesReply lists the server's served tables sorted by name.
type ListTablesReply struct {
	Tables []TableStatus
}

// ---- group placement (multi-group deployments) ----

// GroupRange describes one server group's slice of the natural cell
// domain and the addresses of its three servers (S0, S1, S2 in index
// order). Data-plane requests carry a Group tag (zero in single-group
// deployments, so the field gob-omits and old wire streams stay
// compatible); servers reject requests tagged for another group rather
// than silently serving shares from the wrong domain slice.
type GroupRange struct {
	Start   uint64 // first natural domain cell of the group
	Count   uint64 // cells owned by the group
	Servers []string
}

// PlacementRequest asks the announcer for the deployment's group
// placement: how the cell domain is partitioned across server groups
// and where each group's servers live. Owners fetch it once at startup
// to build their routing table.
type PlacementRequest struct{}

// PlacementReply carries the placement, one entry per group in group
// order. Empty Groups means the announcer was not configured with a
// placement (single-group deployment announced out of band).
type PlacementReply struct {
	Groups []GroupRange
}

// ---- cross-group extreme reduce (multi-group max/min/median) ----

// ExtremeReduceRequest is querier → announcer: reduce the retained
// resolved values of a query's vector rounds (SubQueryIDs, one per group
// that owns result cells, in group order) to one query-global outcome.
// A vector round runs entirely inside its group; this final round is the
// only cross-group step, and it reuses what the announcer already saw —
// the masked values F(M)+r it reconstructed per round — so it reveals
// nothing beyond the per-round announcements. For max/min the reply
// names the winning round and the winning cell within it, with its
// masked value; for median the announcer pools every cell's values of
// every round and returns the middle one or two.
type ExtremeReduceRequest struct {
	QueryID     string
	TraceID     string // non-empty → annotate the reply with Spans
	Kind        ExtremeKind
	SubQueryIDs []string
}

// ExtremeReduceReply carries the reduced outcome. Values are masked
// big.Int bytes in [0, Q): one for max/min, one or two for median.
type ExtremeReduceReply struct {
	Values     [][]byte
	WinnerSub  int    // index into SubQueryIDs (max/min)
	WinnerCell int    // cell index within the winning round's vector (max/min)
	HasWinner  bool   // false for median
	Spans      []Span // traced reduces: the announcer's cross-group round
}

// ---- query lifecycle ----

// PingRequest is the universal liveness probe: every node (server,
// announcer) answers it without touching any table or session state, so
// health checkers — the gateway's owner-pool prober, prism-owner
// -op list — can distinguish "process reachable" from "table served"
// cheaply. It deliberately carries no group tag: a ping asks "are you
// alive?", not "do you own my cells?", so it must succeed against any
// healthy node regardless of routing.
type PingRequest struct{}

// PingReply answers a ping. Site names the responder the way its
// metrics do ("g0/s1" for group 0's server 1, "announcer"), so a probe
// sweeping an address book can report which process answered from where.
type PingReply struct {
	Site string
}

// QueryDoneRequest retires every piece of per-query state a node holds
// for the given query id (extreme-submission slots, claim vectors,
// announcer results). Queriers send it best-effort once a max/min/median
// query completes so long-running deployments do not accumulate session
// state; nodes treat unknown ids as a no-op.
type QueryDoneRequest struct{ QueryID string }

// QueryDoneReply acknowledges the cleanup.
type QueryDoneReply struct{}

// Messages returns one zero value of every wire message type. It is
// the single source of truth three guards share: Register feeds it to
// gob, the gobregistry analyzer (prism-vet) statically checks every
// *Request/*Reply struct in this package appears in it, and the
// round-trip test in protocol_gob_test.go sends each entry through the
// real frame codec to catch what static checks cannot (unregistered
// nested types, non-encodable fields, a bulk vector left for gob).
func Messages() []any {
	return []any{
		TableSpec{}, Stats{}, Range{}, Span{},
		StoreRequest{}, StoreReply{}, DropRequest{}, DropReply{},
		StoreDeltaRequest{}, StoreDeltaReply{},
		PSIRequest{}, PSIReply{},
		CountRequest{}, CountReply{},
		PSURequest{}, PSUReply{},
		AggRequest{}, AggReply{},
		ExtremeSubmitRequest{}, ExtremeSubmitReply{},
		ExtremeFetchRequest{}, ExtremeFetchReply{},
		AnnounceRequest{}, AnnounceReply{},
		AnnounceFetchRequest{}, AnnounceFetchReply{},
		ClaimSubmitRequest{}, ClaimSubmitReply{},
		ClaimFetchRequest{}, ClaimFetchReply{},
		ListTablesRequest{}, ListTablesReply{}, TableStatus{},
		GroupRange{}, PlacementRequest{}, PlacementReply{},
		ExtremeReduceRequest{}, ExtremeReduceReply{},
		PingRequest{}, PingReply{},
		QueryDoneRequest{}, QueryDoneReply{},
	}
}

// Register registers every message type with gob for transport.
func Register() {
	for _, v := range Messages() {
		gob.Register(v)
	}
}

func init() { Register() }
