package ownerengine

import (
	"context"
	"errors"
	"fmt"
	"testing"

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
		o, err := NewMulti(i, cfgs, n, prg.SeedFromString("owner-seed"))
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
// cell list must come back as an error from the router's split — on one
// group and on two — not as an index panic, and must leave the loaded
// data as it was.
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
