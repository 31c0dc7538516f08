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

// Owner is one DB owner. It holds the owner's private state once, as
// the paper's owner does (§4): the loaded tuples, in loaded order, and
// one natural-order table per outsourced table over the whole domain.
// Below it sits one protocol engine per server group: each engine speaks
// the unchanged PRISM math against its group's S0/S1/S2 triple over that
// group's contiguous slice [Start, Start+B) of the cell domain, sharing
// zero-copy slices of the owner's tables. An outsource builds the tables
// once and fans the groups' uploads out concurrently; an update folds
// the dataset and computes the changed cells once, and each touched
// group ships its run of them. A query is Exec's (exec.go): every group
// runs the query's whole round script on its own slice, and one merge
// brings the answers back into the global domain.
//
// A single-group deployment is the N = 1 case of the same fan-out and
// merge.
type Owner struct {
	Index int

	groups []*engine
	starts []uint64 // starts[g] = groups[g].view.Start
	b      uint64   // total domain size (sum of group Bs)

	mu     sync.Mutex
	data   *Data
	tables map[string]*localTable
	// appendable is the dataset whose arrays an update fold made: their
	// capacity past the tuples is the owner's, and the next fold of that
	// dataset claims it (buildUpdate) to append its adds in place. Nil
	// until a fold commits, after a Load, and while a claim is out.
	appendable *Data

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
	o := &Owner{Index: index, tables: make(map[string]*localTable)}
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

// Load installs the owner's private tuples. The owner keeps d itself,
// not a copy, and never writes its arrays: the caller must not modify
// them afterwards.
func (o *Owner) Load(d *Data) error {
	if err := d.Validate(o.b, o.View().MaxAgg); err != nil {
		return err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.data, o.appendable = d, nil
	return nil
}

// Data returns the loaded dataset (owner-local, never shared), nil when
// nothing is loaded: the tuples in the order they were loaded, every
// committed update folded in — removals taken out where they stood, adds
// appended. Callers must not modify it.
func (o *Owner) Data() *Data {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.data
}

// Outsource runs Phase 1: it builds the table's natural-order columns
// once, then every group permutes, shares and uploads its slice of them
// concurrently. The owner keeps the table for updates only once every
// group's upload has succeeded; a failed upload drops the table it kept
// before, so Update refuses it until an outsource or AdoptTable
// succeeds. Split and upload times sum across groups (total work, not
// wall time).
func (o *Owner) Outsource(ctx context.Context, spec OutsourceSpec) (ShareGenStats, error) {
	start := time.Now()
	t, err := o.buildLocal(spec)
	if err != nil {
		return ShareGenStats{}, err
	}
	total := ShareGenStats{BuildNS: time.Since(start).Nanoseconds()}
	var mu sync.Mutex
	err = o.eachGroup("outsource", o.allGroups(), func(g int) error {
		e := o.groups[g]
		st, err := e.outsource(ctx, t.slice(e.view.Start, e.view.Start+e.view.B))
		mu.Lock()
		total.SplitNS += st.SplitNS
		total.UploadNS += st.UploadNS
		total.Cells += st.Cells
		mu.Unlock()
		return err
	})
	o.mu.Lock()
	if err != nil {
		// Some groups may already serve the new upload while others
		// serve the old one: no one table matches them all, so updates
		// are refused until a re-outsource or AdoptTable succeeds.
		delete(o.tables, spec.Table)
	} else {
		o.tables[spec.Table] = t
	}
	o.mu.Unlock()
	return total, err
}

// AdoptTable rebuilds the owner-local update state for a table this
// process did not outsource itself (the servers already hold it — e.g.
// a fresh CLI process issuing updates against a recovered deployment).
// The loaded data must be the pre-update dataset the table was
// outsourced from, or subsequent deltas will diverge from the base.
func (o *Owner) AdoptTable(spec OutsourceSpec) error {
	t, err := o.buildLocal(spec)
	if err != nil {
		return err
	}
	o.mu.Lock()
	o.tables[spec.Table] = t
	o.mu.Unlock()
	return nil
}

// localTableFor fetches owner-local table state.
func (o *Owner) localTableFor(name string) (*localTable, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.tables[name]
	if !ok {
		return nil, fmt.Errorf("ownerengine: table %q not outsourced by this owner", name)
	}
	return t, nil
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
