package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// Owner is one DB owner. It is a placement/routing layer over one
// protocol engine per server group: each engine speaks the unchanged
// PRISM math against its group's S0/S1/S2 triple over that group's
// contiguous slice [Start, Start+B) of the cell domain. The router
// splits loaded tuples and updates by owning group and fans the
// per-group exchanges out concurrently. A query is Exec's (exec.go):
// every group runs the query's whole round script on its own slice, and
// one merge brings the answers back into the global domain.
//
// A single-group deployment is the N = 1 case of the same fan-out and
// merge.
type Owner struct {
	Index int

	groups []*engine
	starts []uint64 // starts[g] = groups[g].view.Start
	b      uint64   // total domain size (sum of group Bs)

	qidNonce atomic.Uint64 // extreme-query ids this owner has minted (exec.go)
}

// GroupConfig describes one server group from an owner's perspective.
type GroupConfig struct {
	View    *params.OwnerView // group-scoped view (Group, Start, B set)
	Servers []string          // the group's params.NumServers server addresses
}

// New builds an owner spanning one or more server groups. Group views
// must cover the domain contiguously in group order (group g starts
// where group g−1 ends); every O(b) exchange moves in windows of at most
// shardCells cells (0 → one window of the whole table); seed drives all
// share randomness, each group's engine drawing from its own stream
// derived from it (zero → fresh entropy).
func New(index int, groups []GroupConfig, caller transport.Caller, shardCells uint64, seed prg.Seed) (*Owner, error) {
	if len(groups) == 0 {
		return nil, errors.New("ownerengine: New needs at least one group")
	}
	var zero prg.Seed
	if seed == zero {
		seed = prg.NewSeed()
	}
	o := &Owner{Index: index}
	var next uint64
	for g, gc := range groups {
		v := gc.View
		if v.Group != g {
			return nil, fmt.Errorf("ownerengine: group %d view is labelled group %d", g, v.Group)
		}
		if v.Start != next {
			return nil, fmt.Errorf("ownerengine: group %d starts at cell %d, want %d (groups must tile the domain)", g, v.Start, next)
		}
		e, err := newEngine(index, v, caller, gc.Servers, shardCells, seed)
		if err != nil {
			return nil, fmt.Errorf("ownerengine: group %d: %w", g, err)
		}
		o.groups = append(o.groups, e)
		o.starts = append(o.starts, v.Start)
		next = v.Start + v.B
	}
	o.b = next
	return o, nil
}

// NumGroups reports how many server groups this owner spans.
func (o *Owner) NumGroups() int { return len(o.groups) }

// DomainB is the total cell-domain size across all groups.
func (o *Owner) DomainB() uint64 { return o.b }

// View exposes the group-0 parameter view. All cryptographic material
// that must be deployment-global (Poly, Q, PF, MaxAgg, Delta, M) is
// identical across groups, so group 0's copy answers for all of them;
// domain fields (B, Start) are group-scoped — use DomainB for the
// global size.
func (o *Owner) View() *params.OwnerView { return o.groups[0].View() }

// GroupView exposes group g's parameter view.
func (o *Owner) GroupView(g int) *params.OwnerView { return o.groups[g].View() }

// groupOf locates the group owning a global cell.
func (o *Owner) groupOf(cell uint64) (int, error) {
	if cell >= o.b {
		return 0, fmt.Errorf("ownerengine: cell %d outside domain of %d cells", cell, o.b)
	}
	for g := len(o.groups) - 1; g > 0; g-- {
		if cell >= o.starts[g] {
			return g, nil
		}
	}
	return 0, nil
}

// groupErr tags an error with the group it came from, so a dead or
// misbehaving group is identifiable from a merged failure.
func (o *Owner) groupErr(g int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("group %d: %w", g, err)
}

// eachGroup runs fn for every listed group concurrently and joins the
// group-tagged errors. op labels the fan-out latency series — a query's
// kind name, or outsource, update, ping: the recorded duration is the
// slowest group's, since the groups run concurrently.
func (o *Owner) eachGroup(op string, sel []int, fn func(g int) error) error {
	start := time.Now()
	defer func() { mFanoutSeconds.Observe(op, time.Since(start).Seconds()) }()
	errs := make([]error, len(sel))
	var wg sync.WaitGroup
	for k, g := range sel {
		wg.Add(1)
		go func(k, g int) {
			defer wg.Done()
			errs[k] = o.groupErr(g, fn(g))
		}(k, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (o *Owner) allGroups() []int {
	sel := make([]int, len(o.groups))
	for g := range sel {
		sel[g] = g
	}
	return sel
}

// splitData partitions a global dataset into per-group datasets with
// group-local cell indices. Every group receives a dataset (possibly
// empty) carrying every aggregation column, so per-group engines answer
// column lookups uniformly. A nil dataset splits into nils.
func (o *Owner) splitData(d *Data) ([]*Data, error) {
	parts := make([]*Data, len(o.groups))
	if d == nil {
		return parts, nil
	}
	// One pass places every tuple; the columns then move as whole
	// slices, so a tuple costs an append per column and no map access.
	group := make([]int, len(d.Cells))
	counts := make([]int, len(o.groups))
	for i, c := range d.Cells {
		g, err := o.groupOf(c)
		if err != nil {
			return nil, err
		}
		group[i] = g
		counts[g]++
	}
	for g := range parts {
		parts[g] = &Data{Cells: make([]uint64, 0, counts[g])}
		if d.Aggs != nil {
			parts[g].Aggs = make(map[string][]uint64, len(d.Aggs))
		}
	}
	for i, c := range d.Cells {
		p := parts[group[i]]
		p.Cells = append(p.Cells, c-o.starts[group[i]])
	}
	for col, vs := range d.Aggs {
		if len(vs) != len(d.Cells) {
			return nil, fmt.Errorf("ownerengine: column %q has %d values for %d tuples", col, len(vs), len(d.Cells))
		}
		split := make([][]uint64, len(parts))
		for g := range split {
			split[g] = make([]uint64, 0, counts[g])
		}
		for i, v := range vs {
			split[group[i]] = append(split[group[i]], v)
		}
		for g, p := range parts {
			p.Aggs[col] = split[g]
		}
	}
	return parts, nil
}

// Load installs the owner's private tuples, splitting them across
// groups by owning cell range.
func (o *Owner) Load(d *Data) error {
	if err := d.Validate(o.b, o.View().MaxAgg); err != nil {
		return err
	}
	parts, err := o.splitData(d)
	if err != nil {
		return err
	}
	for g, e := range o.groups {
		if err := e.Load(parts[g]); err != nil {
			return o.groupErr(g, err)
		}
	}
	return nil
}

// Data returns the loaded dataset (owner-local, never shared), nil when
// nothing is loaded. The tuples come back grouped by owning group in
// ascending group order; across groups the original interleaving is not
// preserved.
func (o *Owner) Data() *Data {
	var out *Data
	for g, e := range o.groups {
		d := e.Data()
		if d == nil {
			continue
		}
		if out == nil {
			out = &Data{}
		}
		for _, c := range d.Cells {
			out.Cells = append(out.Cells, c+o.starts[g])
		}
		for col, vs := range d.Aggs {
			if out.Aggs == nil {
				out.Aggs = make(map[string][]uint64)
			}
			out.Aggs[col] = append(out.Aggs[col], vs...)
		}
	}
	return out
}

// Outsource runs Phase 1 against every group concurrently. Stats sum
// across groups (total work, not wall time).
func (o *Owner) Outsource(ctx context.Context, spec OutsourceSpec) (ShareGenStats, error) {
	var mu sync.Mutex
	var total ShareGenStats
	err := o.eachGroup("outsource", o.allGroups(), func(g int) error {
		st, err := o.groups[g].Outsource(ctx, spec)
		mu.Lock()
		total.BuildNS += st.BuildNS
		total.SplitNS += st.SplitNS
		total.UploadNS += st.UploadNS
		total.Cells += st.Cells
		mu.Unlock()
		return err
	})
	return total, err
}

// AdoptTable rebuilds owner-local update state for an already-served
// table in every group.
func (o *Owner) AdoptTable(spec OutsourceSpec) error {
	for g, e := range o.groups {
		if err := e.AdoptTable(spec); err != nil {
			return o.groupErr(g, err)
		}
	}
	return nil
}

// Update applies a tuple-set change to an outsourced table: add and
// remove list tuples in the Data format (either may be nil), split here
// by owning group. Every group prepares before anything is sent, each
// server of a touched group receives exactly one StoreDeltaRequest (and,
// for a table outsourced with Buckets, S0 and S1 the group's rebuilt
// bucket tree), and the owner's state is folded only once all of them
// have acknowledged:
// a failed update returns the error and leaves the owner untouched, and
// calling Update again with the same tuples converges the servers.
func (o *Owner) Update(ctx context.Context, table string, add, remove *Data) (UpdateStats, error) {
	addParts, err := o.splitData(add)
	if err != nil {
		return UpdateStats{}, err
	}
	remParts, err := o.splitData(remove)
	if err != nil {
		return UpdateStats{}, err
	}
	// Prepare in every group — an untouched one prepares to nil, and
	// unknown-table or not-adopted errors surface even for an empty update.
	ups := make([]*update, len(o.groups))
	var sel []int // the touched groups: those with a prepared update
	release := func() {
		for _, g := range sel {
			ups[g].release()
		}
	}
	for g, e := range o.groups {
		if ups[g], err = e.prepareUpdate(table, addParts[g], remParts[g]); err != nil {
			release()
			return UpdateStats{}, o.groupErr(g, err)
		}
		if ups[g] != nil {
			sel = append(sel, g)
		}
	}
	err = o.eachGroup("update", sel, func(g int) error { return o.groups[g].shipUpdate(ctx, ups[g]) })
	if err != nil {
		release()
		return UpdateStats{}, err
	}
	total := UpdateStats{FastPath: true}
	for _, g := range sel {
		u := ups[g]
		o.groups[g].commitUpdate(u)
		total.BuildNS += u.stats.BuildNS
		total.SplitNS += u.stats.SplitNS
		total.UploadNS += u.stats.UploadNS
		total.Cells += u.stats.Cells
		total.FastPath = total.FastPath && u.stats.FastPath
	}
	return total, nil
}

// Ping probes every server of every group concurrently. A nil return
// means the full serving fabric behind this owner answered; failures
// come back joined, tagged with group and logical server address, so a
// health checker can name the dead process rather than just "owner
// unhealthy". The probe is qid-free and touches no table state.
func (o *Owner) Ping(ctx context.Context) error {
	return o.eachGroup("ping", o.allGroups(), func(g int) error {
		return o.groups[g].Ping(ctx)
	})
}

// PingGroup probes group g's three servers only.
func (o *Owner) PingGroup(ctx context.Context, g int) error {
	if g < 0 || g >= len(o.groups) {
		return fmt.Errorf("ownerengine: no group %d (have %d)", g, len(o.groups))
	}
	return o.groupErr(g, o.groups[g].Ping(ctx))
}

// ListTablesGroup asks group g's servers for their table inventories.
func (o *Owner) ListTablesGroup(ctx context.Context, g int) ([][]protocol.TableStatus, error) {
	if g < 0 || g >= len(o.groups) {
		return nil, fmt.Errorf("ownerengine: no group %d (have %d)", g, len(o.groups))
	}
	out, err := o.groups[g].ListTables(ctx)
	return out, o.groupErr(g, err)
}

// TableServed reports whether every group's three servers fully serve
// the table. The returned statuses describe group 0.
func (o *Owner) TableServed(ctx context.Context, table string) (bool, []*protocol.TableStatus, error) {
	var sts []*protocol.TableStatus
	for g, e := range o.groups {
		ok, gsts, err := e.TableServed(ctx, table)
		if g == 0 {
			sts = gsts
		}
		if err != nil || !ok {
			return false, sts, o.groupErr(g, err)
		}
	}
	return true, sts, nil
}
