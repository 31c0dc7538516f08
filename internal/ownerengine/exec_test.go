package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/announcer"
	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/transport"
)

// execRig wires m owners — a full cohort — against `groups` real server
// triples and an announcer in-process, loads every owner with tuples at
// cells 2 and b−3 (one per group when there are two) plus one private
// cell each, and outsources table "t" with its verification columns.
type execRig struct {
	network *transport.Network
	servers [][]*serverengine.Engine // [group][phi]
	cohort  *Cohort
}

func groupAddr(g, phi int) string { return fmt.Sprintf("g%d/server/%d", g, phi) }

func newExecRig(t *testing.T, m int, b uint64, groups int) *execRig {
	t.Helper()
	multi, err := params.GenerateGroups(params.Config{
		NumOwners:  m,
		DomainSize: b,
		MaxAgg:     100000,
		Seed:       prg.SeedFromString("exec-rig"),
	}, groups)
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewNetwork()
	r := &execRig{network: n, cohort: &Cohort{Announcer: "announcer"}}
	cfgs := make([]GroupConfig, groups)
	for g, gsys := range multi.Groups {
		engines := make([]*serverengine.Engine, params.NumServers)
		for phi := range engines {
			view, err := gsys.ForServer(phi)
			if err != nil {
				t.Fatal(err)
			}
			engines[phi] = serverengine.New(view, serverengine.Options{
				Threads: 2, AnnouncerAddr: "announcer", Caller: n, Group: g,
			})
			n.Register(groupAddr(g, phi), engines[phi])
			cfgs[g].Servers = append(cfgs[g].Servers, groupAddr(g, phi))
		}
		cfgs[g].View = gsys.ForOwner()
		r.servers = append(r.servers, engines)
	}
	n.Register("announcer", announcer.New(multi.Groups[0].ForAnnouncer()))
	for i := 0; i < m; i++ {
		o, err := New(i, cfgs, n, 0, prg.SeedFromString("owner-seed"))
		if err != nil {
			t.Fatal(err)
		}
		d := &Data{
			Cells: []uint64{2, b - 3, uint64(5 + i)},
			Aggs:  map[string][]uint64{"v": {uint64(10 + i), uint64(40 - i), 7}},
		}
		if err := o.Load(d); err != nil {
			t.Fatal(err)
		}
		spec := OutsourceSpec{Table: "t", AggCols: []string{"v"}, Verify: true, WithCount: true}
		if _, err := o.Outsource(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		r.cohort.Owners = append(r.cohort.Owners, o)
	}
	return r
}

// TestExecVerifiesEveryAggregate pins the rule the hand-copied scripts had
// drifted on: whatever a query aggregates over, Verify checks the PSI
// round first. An S0 that flips one cell of its PSI output — in the last
// group only — fails sum, avg and max with ErrVerificationFailed; the
// same queries with Verify off run to an (unchecked) answer, and the
// honest server's answers verify.
func TestExecVerifiesEveryAggregate(t *testing.T) {
	ctx := context.Background()
	for _, groups := range []int{1, 2} {
		r := newExecRig(t, 3, 32, groups)
		last := groups - 1
		s0 := r.servers[last][0]
		flip := transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
			reply, err := s0.Handle(ctx, req)
			if rep, ok := reply.(protocol.PSIReply); ok {
				rep.Out = append([]uint32(nil), rep.Out...)
				rep.Out[0]++
				return rep, err
			}
			return reply, err
		})
		for _, kind := range []OpKind{OpPSISum, OpPSIAvg, OpPSIMax} {
			name := fmt.Sprintf("%d groups, %s", groups, kind.Name())
			q := Query{Kind: kind, Table: "t", Cols: []string{"v"}, Verify: true}
			querier := r.cohort.Owners[1]

			res, err := querier.Exec(ctx, q, r.cohort)
			if err != nil {
				t.Fatalf("%s, honest servers: %v", name, err)
			}
			if len(res.Cells) != 2 {
				t.Fatalf("%s, honest servers: cells %v, want the 2 planted", name, res.Cells)
			}

			r.network.Register(groupAddr(last, 0), flip)
			if _, err := querier.Exec(ctx, q, r.cohort); !errors.Is(err, ErrVerificationFailed) {
				t.Errorf("%s, verified, one PSI cell flipped: err = %v, want ErrVerificationFailed", name, err)
			}
			q.Verify = false
			if _, err := querier.Exec(ctx, q, r.cohort); err != nil {
				t.Errorf("%s, unverified, one PSI cell flipped: %v", name, err)
			}
			r.network.Register(groupAddr(last, 0), s0)
		}
		for g, grp := range r.servers {
			for phi, e := range grp {
				if n := e.Sessions(); n != 0 {
					t.Errorf("%d groups: group %d server %d still holds %d sessions", groups, g, phi, n)
				}
			}
		}
	}
}

// TestGroupsPipelineRounds: a group runs its rounds without waiting for
// another group's. Group 1's additive pair holds every PSI request until
// group 0's S2 has seen an aggregation request — which group 0 sends only
// if it may start round 2 while group 1 is still in round 1 — and errors
// after 2 s; the verified sum must still answer both planted cells.
func TestGroupsPipelineRounds(t *testing.T) {
	r := newExecRig(t, 3, 32, 2)
	aggSeen := make(chan struct{})
	var once sync.Once
	s2 := r.servers[0][2]
	r.network.Register(groupAddr(0, 2), transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if _, ok := req.(protocol.AggRequest); ok {
			once.Do(func() { close(aggSeen) })
		}
		return s2.Handle(ctx, req)
	}))
	for phi := 0; phi < 2; phi++ {
		inner := r.servers[1][phi]
		r.network.Register(groupAddr(1, phi), transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
			if _, ok := req.(protocol.PSIRequest); ok {
				select {
				case <-aggSeen:
				case <-time.After(2 * time.Second):
					return nil, errors.New("group 1 held its PSI round 2 s: group 0 never reached its aggregation round")
				}
			}
			return inner.Handle(ctx, req)
		}))
	}
	q := Query{Kind: OpPSISum, Table: "t", Cols: []string{"v"}, Verify: true}
	res, err := r.cohort.Owners[0].Exec(context.Background(), q, r.cohort)
	if err != nil {
		t.Fatal(err)
	}
	// Owner i holds 10+i at cell 2 and 40−i at cell 29 (= b−3).
	want := map[uint64]uint64{2: 10 + 11 + 12, 29: 40 + 39 + 38}
	if !reflect.DeepEqual(res.Cells, []uint64{2, 29}) || !reflect.DeepEqual(res.Sums["v"], want) {
		t.Errorf("cells %v, sums %v; want [2 29], %v", res.Cells, res.Sums["v"], want)
	}
}

// TestKindTable: every row of the kind table resolves by both of its
// names, and CheckCols accepts exactly its family's arity.
func TestKindTable(t *testing.T) {
	arity := map[Family][3]bool{ // accepts 0, 1, 2 columns
		FamilySet:     {true, false, false},
		FamilyCount:   {true, false, false},
		FamilyAgg:     {false, true, true},
		FamilyExtreme: {false, true, false},
	}
	for i, name := range KindNames() {
		k := OpKind(i)
		for _, s := range []string{name, k.String()} {
			if got, ok := KindByName(s); !ok || got != k {
				t.Errorf("KindByName(%q) = %v, %v; want %v", s, got, ok, k)
			}
		}
		for n, ok := range arity[k.Family()] {
			if err := CheckCols(k, []string{"a", "b"}[:n]); (err == nil) != ok {
				t.Errorf("CheckCols(%s, %d columns) = %v, want accepted = %v", name, n, err, ok)
			}
		}
	}
	if _, ok := KindByName("explode"); ok {
		t.Error("KindByName resolved an unknown name")
	}
	for _, k := range []OpKind{-1, OpKind(len(kinds))} {
		if err := CheckCols(k, nil); err == nil {
			t.Errorf("CheckCols accepted kind %d", int(k))
		}
	}
}

// TestExecWithoutCohort: a lone owner engine refuses the extremes before
// any round starts, and a cohort missing an owner counts as none.
func TestExecWithoutCohort(t *testing.T) {
	r := newExecRig(t, 3, 32, 1)
	q := Query{Kind: OpPSIMedian, Table: "t", Cols: []string{"v"}}
	short := &Cohort{Owners: r.cohort.Owners[:2], Announcer: "announcer"}
	for _, co := range []*Cohort{nil, short} {
		if _, err := r.cohort.Owners[0].Exec(context.Background(), q, co); !errors.Is(err, ErrUnsupported) {
			t.Errorf("median with cohort %+v: err = %v, want ErrUnsupported", co, err)
		}
	}
	if n := r.servers[0][0].Sessions(); n != 0 {
		t.Errorf("refused queries opened %d sessions", n)
	}
}

// TestRaggedUpdateRejected: an update whose column is shorter than its
// cell list must come back as an error from the owner's validation — on
// one group and on two — not as an index panic, and must leave the
// loaded data as it was.
func TestRaggedUpdateRejected(t *testing.T) {
	for _, groups := range []int{1, 2} {
		o := newExecRig(t, 3, 32, groups).cohort.Owners[0]
		before := len(o.Data().Cells)
		ragged := &Data{Cells: []uint64{1, 30}, Aggs: map[string][]uint64{"v": {9}}}
		if _, err := o.Update(context.Background(), "t", ragged, nil); err == nil {
			t.Errorf("%d groups: ragged update accepted", groups)
		}
		if got := len(o.Data().Cells); got != before {
			t.Errorf("%d groups: rejected update changed the loaded data: %d → %d tuples", groups, before, got)
		}
	}
}

// TestFailedReoutsourceRefusesUpdates: a re-outsource of new data that
// one group's server refuses leaves the other group serving the new
// upload and this one the old, so no table the owner holds matches both:
// Update is refused until an outsource succeeds again, instead of
// shipping deltas from the old table to servers that hold the new one.
func TestFailedReoutsourceRefusesUpdates(t *testing.T) {
	ctx := context.Background()
	r := newExecRig(t, 3, 32, 2)
	o := r.cohort.Owners[0]
	spec := OutsourceSpec{Table: "t", AggCols: []string{"v"}, Verify: true, WithCount: true}
	if err := o.Load(&Data{Cells: []uint64{3, 20}, Aggs: map[string][]uint64{"v": {8, 9}}}); err != nil {
		t.Fatal(err)
	}
	s0 := r.servers[1][0]
	refused := errors.New("upload refused")
	r.network.Register(groupAddr(1, 0), transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
		if _, ok := req.(protocol.StoreRequest); ok {
			return nil, refused
		}
		return s0.Handle(ctx, req)
	}))
	if _, err := o.Outsource(ctx, spec); !errors.Is(err, refused) {
		t.Fatalf("re-outsource with group 1's S0 refusing: err = %v, want the refusal", err)
	}
	add := &Data{Cells: []uint64{4, 21}, Aggs: map[string][]uint64{"v": {1, 2}}}
	if _, err := o.Update(ctx, "t", add, nil); err == nil || !strings.Contains(err.Error(), "not outsourced") {
		t.Fatalf("update after the half-committed re-outsource: err = %v, want the table not outsourced", err)
	}
	r.network.Register(groupAddr(1, 0), s0)
	if _, err := o.Outsource(ctx, spec); err != nil {
		t.Fatalf("re-outsource with every server answering: %v", err)
	}
	if _, err := o.Update(ctx, "t", add, nil); err != nil {
		t.Fatalf("update after the re-outsource: %v", err)
	}
}

// TestUpdateRemovesDuplicatePair: removals that name a pair of equal
// tuples at one cell and one tuple elsewhere each take a distinct loaded
// tuple — the third equal one at the cell stays, and so does one with
// other values there — and the folded dataset keeps every other tuple in
// its loaded order, on one group and on two.
func TestUpdateRemovesDuplicatePair(t *testing.T) {
	ctx := context.Background()
	for _, groups := range []int{1, 2} {
		o := newExecRig(t, 3, 32, groups).cohort.Owners[0] // loaded: cells 2, 29, 5; v 10, 40, 7
		add := &Data{Cells: []uint64{9, 9, 9, 9}, Aggs: map[string][]uint64{"v": {5, 5, 6, 5}}}
		if st, err := o.Update(ctx, "t", add, nil); err != nil || !st.FastPath {
			t.Fatalf("%d groups: adding the pair: %+v, %v", groups, st, err)
		}
		rm := &Data{Cells: []uint64{9, 2, 9}, Aggs: map[string][]uint64{"v": {5, 10, 5}}}
		if st, err := o.Update(ctx, "t", nil, rm); err != nil || st.FastPath {
			t.Fatalf("%d groups: removing the pair: %+v, %v", groups, st, err)
		}
		got, want := o.Data(), &Data{Cells: []uint64{29, 5, 9, 9}, Aggs: map[string][]uint64{"v": {40, 7, 6, 5}}}
		if !reflect.DeepEqual(got.Cells, want.Cells) || !reflect.DeepEqual(got.Aggs, want.Aggs) {
			t.Fatalf("%d groups: folded data cells %v v %v, want cells %v v %v", groups, got.Cells, got.Aggs["v"], want.Cells, want.Aggs["v"])
		}
		// Two more equal tuples at cell 9 than the dataset holds match none.
		rm = &Data{Cells: []uint64{9, 9}, Aggs: map[string][]uint64{"v": {5, 5}}}
		if _, err := o.Update(ctx, "t", nil, rm); err == nil || !strings.Contains(err.Error(), "matches no loaded tuple") {
			t.Fatalf("%d groups: removing two of one remaining tuple: %v", groups, err)
		}
	}
}

// TestUpdateFoldKeepsSnapshots: a fold never writes a tuple an earlier
// dataset shows — add-only folds after the first append in place, into
// capacity only the owner's folds hand out, and a removal copies — so a
// query holding any earlier dataset reads it unchanged.
func TestUpdateFoldKeepsSnapshots(t *testing.T) {
	ctx := context.Background()
	o := newExecRig(t, 3, 32, 1).cohort.Owners[0]
	type snap struct {
		d     *Data
		cells []uint64
		v     []uint64
	}
	var snaps []snap
	take := func() *Data {
		d := o.Data()
		snaps = append(snaps, snap{d, slices.Clone(d.Cells), slices.Clone(d.Aggs["v"])})
		return d
	}
	add := func(c, v uint64) {
		t.Helper()
		if _, err := o.Update(ctx, "t", &Data{Cells: []uint64{c}, Aggs: map[string][]uint64{"v": {v}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	take()
	add(11, 1) // copies the loaded arrays
	prev, inPlace := take(), 0
	for i := range uint64(4) {
		add(12+i, 2+i)
		d := take()
		if same := &d.Cells[0] == &prev.Cells[0]; same != (cap(prev.Cells) > len(prev.Cells)) {
			t.Fatalf("add-only fold %d: in place %v, with %d of %d cells' capacity used", i, same, len(prev.Cells), cap(prev.Cells))
		} else if same {
			inPlace++
		}
		prev = d
	}
	if inPlace == 0 {
		t.Fatal("no add-only fold appended in place")
	}
	if _, err := o.Update(ctx, "t", nil, &Data{Cells: []uint64{12}, Aggs: map[string][]uint64{"v": {2}}}); err != nil {
		t.Fatal(err)
	}
	if d := take(); &d.Cells[0] == &prev.Cells[0] {
		t.Fatal("a fold with a removal wrote into the earlier dataset's arrays")
	}
	add(20, 9)
	take()
	for i, s := range snaps {
		if !slices.Equal(s.d.Cells, s.cells) || !slices.Equal(s.d.Aggs["v"], s.v) {
			t.Fatalf("dataset %d changed under later folds: cells %v → %v, v %v → %v", i, s.cells, s.d.Cells, s.v, s.d.Aggs["v"])
		}
	}
	if got := snaps[len(snaps)-1].cells; !slices.Equal(got, []uint64{2, 29, 5, 11, 13, 14, 15, 20}) {
		t.Fatalf("final dataset cells %v", got)
	}
}
