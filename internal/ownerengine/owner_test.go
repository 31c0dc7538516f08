package ownerengine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"prism/internal/announcer"
	"prism/internal/params"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/serverengine"
	"prism/internal/transport"
)

// rig wires m owners against real server/announcer engines in-process.
type rig struct {
	owners  []*Owner
	servers []*serverengine.Engine
	network *transport.Network
}

func newRig(t *testing.T, m int, b uint64) *rig {
	t.Helper()
	sys, err := params.Generate(params.Config{
		NumOwners:  m,
		DomainSize: b,
		MaxAgg:     100000,
		Seed:       prg.SeedFromString("ownerengine-rig"),
	})
	if err != nil {
		t.Fatal(err)
	}
	n := transport.NewNetwork()
	r := &rig{network: n}
	addrs := make([]string, params.NumServers)
	for phi := 0; phi < params.NumServers; phi++ {
		view, err := sys.ForServer(phi)
		if err != nil {
			t.Fatal(err)
		}
		eng := serverengine.New(view, serverengine.Options{
			Threads: 2, AnnouncerAddr: "announcer", Caller: n,
		})
		addrs[phi] = serverAddr(phi)
		n.Register(addrs[phi], eng)
		r.servers = append(r.servers, eng)
	}
	n.Register("announcer", announcer.New(sys.ForAnnouncer()))
	for i := 0; i < m; i++ {
		o, err := New(i, sys.ForOwner(), n, addrs, prg.SeedFromString("owner-seed"))
		if err != nil {
			t.Fatal(err)
		}
		r.owners = append(r.owners, o)
	}
	return r
}

func serverAddr(phi int) string {
	return []string{"server/0", "server/1", "server/2"}[phi]
}

func TestDataValidate(t *testing.T) {
	d := &Data{Cells: []uint64{0, 5}}
	if err := d.Validate(6, 100); err != nil {
		t.Errorf("valid data rejected: %v", err)
	}
	if err := d.Validate(5, 100); err == nil {
		t.Error("out-of-range cell accepted")
	}
	d2 := &Data{Cells: []uint64{0}, Aggs: map[string][]uint64{"v": {1, 2}}}
	if err := d2.Validate(5, 100); err == nil {
		t.Error("ragged column accepted")
	}
	d3 := &Data{Cells: []uint64{0}, Aggs: map[string][]uint64{"v": {101}}}
	if err := d3.Validate(5, 100); err == nil {
		t.Error("over-bound aggregation value accepted")
	}
}

func TestOutsourceWithoutData(t *testing.T) {
	r := newRig(t, 2, 8)
	if _, err := r.owners[0].Outsource(context.Background(), OutsourceSpec{Table: "t"}); err == nil {
		t.Error("outsourcing without data accepted")
	}
}

func TestOutsourceUnknownColumn(t *testing.T) {
	r := newRig(t, 2, 8)
	if err := r.owners[0].Load(&Data{Cells: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	_, err := r.owners[0].Outsource(context.Background(), OutsourceSpec{Table: "t", AggCols: []string{"ghost"}})
	if err == nil {
		t.Error("unknown aggregation column accepted")
	}
}

func TestLocalValuesKinds(t *testing.T) {
	r := newRig(t, 2, 8)
	o := r.owners[0]
	if err := o.Load(&Data{
		Cells: []uint64{3, 5, 3, 3, 5},
		Aggs:  map[string][]uint64{"v": {10, 99, 30, 20, 1}},
	}); err != nil {
		t.Fatal(err)
	}
	// One pass answers every listed cell, in the order listed; cell 7
	// holds no tuple.
	cells := []uint64{3, 5, 7}
	cases := []struct {
		kind protocol.ExtremeKind
		want []uint64
	}{
		{protocol.KindMax, []uint64{30, 99, 0}},
		{protocol.KindMin, []uint64{10, 1, 0}},
		{protocol.KindMedian, []uint64{60, 100, 0}}, // per-owner total at the cell
	}
	for _, c := range cases {
		got, has, err := o.LocalValues(c.kind, "v", cells)
		if err != nil {
			t.Fatalf("%v: %v", c.kind, err)
		}
		if !reflect.DeepEqual(got, c.want) || !reflect.DeepEqual(has, []bool{true, true, false}) {
			t.Errorf("%v = %v (has %v), want %v", c.kind, got, has, c.want)
		}
	}
	if got, has, err := o.LocalValues(protocol.KindMax, "v", nil); err != nil || len(got) != 0 || len(has) != 0 {
		t.Errorf("no cells: %v %v %v", got, has, err)
	}
	if _, _, err := o.LocalValues(protocol.KindMax, "ghost", cells); err == nil {
		t.Error("unknown column accepted")
	}
	if _, _, err := o.LocalValues(protocol.KindMax, "v", []uint64{8}); err == nil {
		t.Error("cell outside the domain accepted")
	}
}

func TestSubmitExtremeRejectsBadVectors(t *testing.T) {
	r := newRig(t, 2, 8)
	ctx := context.Background()
	if err := r.owners[0].SubmitExtreme(ctx, "q", protocol.KindMax, []uint64{0, 1}, []uint64{5, 1 << 40}); err == nil {
		t.Error("value over MaxAgg accepted")
	}
	if err := r.owners[0].SubmitExtreme(ctx, "q", protocol.KindMax, []uint64{0, 1}, []uint64{5}); err == nil {
		t.Error("fewer values than cells accepted")
	}
	if err := r.owners[0].SubmitClaim(ctx, "q", []uint64{0, 1}, []bool{true}); err == nil {
		t.Error("fewer claims than cells accepted")
	}
	if n := r.servers[0].Sessions(); n != 0 {
		t.Errorf("rejected submits reached the servers: %d sessions", n)
	}
}

// TestAggregateRejectsBadSelector: an out-of-range selected cell is
// refused before the query exists — no session is minted, so the owner's
// root stream stands where an untouched twin's does.
func TestAggregateRejectsBadSelector(t *testing.T) {
	r, twin := newRig(t, 2, 8), newRig(t, 2, 8)
	_, err := r.owners[0].Aggregate(context.Background(), "t", []uint64{3, 99}, []string{"v"}, false, false)
	if err == nil {
		t.Error("out-of-range selected cell accepted")
	}
	if got, want := r.owners[0].groups[0].newSession("x").qid, twin.owners[0].groups[0].newSession("x").qid; got != want {
		t.Errorf("rejected Aggregate advanced the owner's stream: next qid %s, want %s", got, want)
	}
}

// TestEndToEndViaEngines runs the verified PSI → aggregate pipeline
// directly at the engine level (no prism.System wrapper).
func TestEndToEndViaEngines(t *testing.T) {
	r := newRig(t, 3, 16)
	ctx := context.Background()
	datasets := []*Data{
		{Cells: []uint64{1, 4, 9}, Aggs: map[string][]uint64{"v": {10, 20, 30}}},
		{Cells: []uint64{1, 4, 7}, Aggs: map[string][]uint64{"v": {1, 2, 3}}},
		{Cells: []uint64{4, 1, 15}, Aggs: map[string][]uint64{"v": {100, 200, 300}}},
	}
	for i, o := range r.owners {
		if err := o.Load(datasets[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Outsource(ctx, OutsourceSpec{
			Table: "t", AggCols: []string{"v"}, Verify: true, WithCount: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	q := r.owners[0]
	res, err := q.PSI(ctx, "t", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 || res.Cells[0] != 1 || res.Cells[1] != 4 {
		t.Fatalf("PSI = %v, want [1 4]", res.Cells)
	}
	agg, err := q.Aggregate(ctx, "t", res.Cells, []string{"v"}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Sums["v"][1] != 10+1+200 {
		t.Errorf("sum at 1 = %d, want 211", agg.Sums["v"][1])
	}
	if agg.Sums["v"][4] != 20+2+100 {
		t.Errorf("sum at 4 = %d, want 122", agg.Sums["v"][4])
	}
	if agg.Counts[1] != 3 || agg.Counts[4] != 3 {
		t.Errorf("counts = %v, want 3 each", agg.Counts)
	}
	avg, ok := agg.Avg("v", 1)
	if !ok || avg != 211.0/3.0 {
		t.Errorf("avg = %f", avg)
	}
}

// TestStatsPopulated: queries must report server compute time and cell
// counts for the bench harness.
func TestStatsPopulated(t *testing.T) {
	r := newRig(t, 2, 64)
	ctx := context.Background()
	for _, o := range r.owners {
		if err := o.Load(&Data{Cells: []uint64{5}}); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Outsource(ctx, OutsourceSpec{Table: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.owners[0].PSI(ctx, "t", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Server.Cells != 128 { // 64 cells × 2 servers
		t.Errorf("cells = %d, want 128", res.Stats.Server.Cells)
	}
	if res.Stats.WallNS == 0 || res.Stats.Rounds != 1 {
		t.Errorf("stats incomplete: %+v", res.Stats)
	}
}

func TestErrVerificationFailedIsSentinel(t *testing.T) {
	err := ErrVerificationFailed
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatal("sentinel broken")
	}
}
