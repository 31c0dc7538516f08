package prism

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"prism/internal/ownerengine"
	"prism/internal/protocol"
	"prism/internal/transport"
)

// cloneData deep-copies an owner's dataset, so a later comparison sees
// a fold that wrote the owner's arrays in place, not only one that
// replaced the dataset.
func cloneData(d *ownerengine.Data) *ownerengine.Data {
	if d == nil {
		return nil
	}
	c := &ownerengine.Data{Cells: slices.Clone(d.Cells)}
	if d.Aggs != nil {
		c.Aggs = make(map[string][]uint64, len(d.Aggs))
		for col, v := range d.Aggs {
			c.Aggs[col] = slices.Clone(v)
		}
	}
	return c
}

// updateConfig is the deployment shape of the incremental-update tests.
func updateConfig(t *testing.T, diskDir string, shardCells uint64) Config {
	t.Helper()
	dom, err := IntDomain(1, 256)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Owners:      3,
		Domain:      dom,
		AggColumns:  []string{"v"},
		MaxAggValue: 50_000,
		Verify:      true,
		Seed:        [32]byte{6, 6, 6},
		DiskDir:     diskDir,
		ShardCells:  shardCells,
	}
}

// updateWorkload is one owner's deterministic dataset and change set:
// the base rows the table is outsourced from, rows added and rows
// removed afterwards, and the final dataset an equivalent fresh
// outsource would load.
type updateWorkload struct {
	base, add, remove, final []Row
}

func updateWorkloads(owners int) []updateWorkload {
	rng := rand.New(rand.NewSource(4242))
	row := func() Row {
		return Row{
			IntKey: uint64(rng.Int63n(256)) + 1,
			Aggs:   map[string]uint64{"v": uint64(rng.Int63n(1000))},
		}
	}
	out := make([]updateWorkload, owners)
	for j := range out {
		w := &out[j]
		w.base = []Row{{IntKey: 1, Aggs: map[string]uint64{"v": 500}}} // planted common key
		for i := 0; i < 40; i++ {
			w.base = append(w.base, row())
		}
		for i := 0; i < 8; i++ {
			w.add = append(w.add, row())
		}
		// Remove a handful of base rows — including, for owner 0, the
		// planted common key, so the update changes the intersection.
		w.remove = append(w.remove, w.base[2], w.base[5], w.base[9])
		if j == 0 {
			w.remove = append(w.remove, w.base[0])
		}
		removed := make(map[int]bool)
		for _, r := range w.remove {
			for i, b := range w.base {
				if !removed[i] && b.IntKey == r.IntKey && b.Aggs["v"] == r.Aggs["v"] {
					removed[i] = true
					break
				}
			}
		}
		for i, b := range w.base {
			if !removed[i] {
				w.final = append(w.final, b)
			}
		}
		w.final = append(w.final, w.add...)
	}
	return out
}

// updateFingerprint runs the full operator mix — sets, counts, verified
// sums/averages, extremes — and canonically serialises the semantic
// results, so an incrementally updated table can be compared
// byte-for-byte against a freshly outsourced one.
func updateFingerprint(t *testing.T, sys *System) string {
	t.Helper()
	reqs := []Request{
		{Op: OpPSI},
		{Op: OpPSU},
		{Op: OpPSICount},
		{Op: OpPSUCount},
		{Op: OpPSISum, Cols: []string{"v"}},
		{Op: OpPSIAvg, Cols: []string{"v"}},
		{Op: OpPSIMax, Cols: []string{"v"}},
		{Op: OpPSIMin, Cols: []string{"v"}},
	}
	var out string
	for _, resp := range sys.QueryBatch(context.Background(), reqs) {
		out += fingerprint(t, resp) + "\n"
	}
	return out
}

// TestIncrementalUpdateMatchesReoutsource is the tentpole's correctness
// contract: after Owner.Update ships its deltas, every query must
// answer exactly as a freshly re-outsourced table holding the updated
// dataset — in-memory and disk-backed, monolithic and sharded wire,
// before compaction, with compaction racing queries, and after the
// backlog is fully folded down.
func TestIncrementalUpdateMatchesReoutsource(t *testing.T) {
	for _, tc := range []struct {
		name   string
		disk   bool
		shards uint64
	}{
		{"mem", false, 0},
		{"mem-sharded", false, 64},
		{"disk", true, 0},
		{"disk-sharded", true, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.disk {
				dir = t.TempDir()
			}
			cfg := updateConfig(t, dir, tc.shards)
			if tc.disk {
				cfg.DeltaMaxEntries = 32 // let density-triggered compaction race the updates
			}
			sys, err := NewLocalSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			work := updateWorkloads(cfg.Owners)
			for j, w := range work {
				if err := sys.Owner(j).Load(w.base); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sys.OutsourceAll(context.Background()); err != nil {
				t.Fatal(err)
			}

			// The reference: a fresh deployment outsourcing the final
			// dataset directly.
			refDir := ""
			if tc.disk {
				refDir = t.TempDir()
			}
			ref, err := NewLocalSystem(updateConfig(t, refDir, tc.shards))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			for j, w := range work {
				if err := ref.Owner(j).Load(w.final); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ref.OutsourceAll(context.Background()); err != nil {
				t.Fatal(err)
			}
			want := updateFingerprint(t, ref)

			// Apply the updates while compaction passes race them.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if err := sys.CompactTables(); err != nil {
							t.Errorf("concurrent compaction: %v", err)
							return
						}
					}
				}
			}()
			for j, w := range work {
				st, err := sys.Owner(j).Update(context.Background(), w.add, w.remove)
				if err != nil {
					t.Fatalf("owner %d update: %v", j, err)
				}
				if st.Cells == 0 || st.Cells > uint64(len(w.add)+len(w.remove)) {
					t.Fatalf("owner %d update touched %d cells for %d changed rows", j, st.Cells, len(w.add)+len(w.remove))
				}
			}
			got := updateFingerprint(t, sys)
			close(stop)
			wg.Wait()
			if got != want {
				t.Fatalf("updated table diverged from fresh outsource (pre-compaction):\n--- want ---\n%s--- got ---\n%s", want, got)
			}

			// Fold everything down and compare again: merge-on-read and
			// the compacted base must be indistinguishable.
			if err := sys.CompactTables(); err != nil {
				t.Fatal(err)
			}
			for phi := 0; phi < 3; phi++ {
				if n := sys.ServerEngine(phi).DeltaBacklog("main"); n != 0 {
					t.Errorf("server %d delta backlog = %d after CompactTables", phi, n)
				}
			}
			if got := updateFingerprint(t, sys); got != want {
				t.Fatalf("updated table diverged after compaction:\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// TestReadsRaceStreamedUpdates: a reader looping psi/count/sum while
// owner 0 streams single-tuple appends — the delta threshold is low
// enough that the background compactor fires several times, so reads
// race in-flight deltas, base-chunk rewrites and cache invalidation —
// must see no error, every append must take the owner's fast path, and
// the merged base+delta view must answer exactly like the compacted
// base. Verify is off: a verified read racing another owner's update is
// ROADMAP direction 1's open false positive, not what this test guards.
func TestReadsRaceStreamedUpdates(t *testing.T) {
	cfg := updateConfig(t, t.TempDir(), 64)
	cfg.Verify = false
	cfg.DeltaMaxEntries = 8
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for j, w := range updateWorkloads(cfg.Owners) {
		if err := sys.Owner(j).Load(w.base); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, err := sys.OutsourceAll(ctx); err != nil {
		t.Fatal(err)
	}
	reads := []Request{{Op: OpPSI}, {Op: OpPSICount}, {Op: OpPSISum, Cols: []string{"v"}}}

	stop := make(chan struct{})
	passes := make(chan int, 1)
	go func() {
		n := 0
		defer func() { passes <- n }()
		for {
			for _, r := range sys.QueryBatch(ctx, reads) {
				if r.Err != nil {
					t.Errorf("%v racing the update stream: %v", r.Op, r.Err)
					return
				}
			}
			n++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 24; i++ {
		cell := uint64(i*37+7) % 256
		st, err := sys.Owner(0).UpdateCells(ctx, []uint64{cell}, map[string][]uint64{"v": {uint64(1 + i)}}, nil, nil)
		if err != nil {
			t.Errorf("update %d: %v", i, err)
			break
		}
		if !st.FastPath {
			t.Errorf("append-only update %d skipped the fast path", i)
		}
	}
	close(stop)
	if n := <-passes; n == 0 {
		t.Fatal("no read pass completed during the update stream")
	}

	fps := func() (out []string) {
		for _, r := range sys.QueryBatch(ctx, reads) {
			out = append(out, fingerprint(t, r))
		}
		return out
	}
	pre := fps()
	if err := sys.CompactTables(); err != nil {
		t.Fatal(err)
	}
	for phi := 0; phi < 3; phi++ {
		if n := sys.ServerEngine(phi).DeltaBacklog("main"); n != 0 {
			t.Errorf("server %d delta backlog = %d after CompactTables", phi, n)
		}
	}
	if post := fps(); !reflect.DeepEqual(pre, post) {
		t.Errorf("answers changed across compaction:\n pre %q\npost %q", pre, post)
	}
}

// TestUpdateValidation: infeasible or malformed updates fail loudly and
// leave both the local state and the servers untouched.
func TestUpdateValidation(t *testing.T) {
	cfg := updateConfig(t, "", 0)
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := updateWorkloads(cfg.Owners)
	for j, w := range work {
		if err := sys.Owner(j).Load(w.base); err != nil {
			t.Fatal(err)
		}
	}
	// Updating before outsourcing is an error.
	if _, err := sys.Owner(0).Update(context.Background(), work[0].add, nil); err == nil {
		t.Fatal("update before outsource accepted")
	}
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := updateFingerprint(t, sys)
	// Removing a tuple the owner never contributed must fail before
	// anything is mutated.
	bogus := []Row{{IntKey: 200, Aggs: map[string]uint64{"v": 49_999}}}
	if _, err := sys.Owner(1).Update(context.Background(), nil, append(bogus, bogus...)); err == nil {
		t.Fatal("infeasible removal accepted")
	}
	// An empty update is a no-op.
	if st, err := sys.Owner(1).Update(context.Background(), nil, nil); err != nil || st.Cells != 0 {
		t.Fatalf("empty update: %+v, %v", st, err)
	}
	if got := updateFingerprint(t, sys); got != want {
		t.Fatal("failed updates changed query results")
	}
}

// TestCompactionCrashRecovery kills a compaction pass at every ordering
// point — after the manifest records CompactThrough, before each column's
// patch, between each chunk's new CRC and its cells, before the epoch
// swap, before each delta-segment deletion — and cold-boots the server
// over the surviving disk state. Because delta entries are absolute
// replacement values, every crash point must recover to the same query
// answers: the base generation it serves (pre- or post-compaction, torn
// chunks rolled forward) plus the replayed delta log always reproduces
// the updated table, never a mix.
func TestCompactionCrashRecovery(t *testing.T) {
	errCrash := errors.New("crash injected")
	work := updateWorkloads(3)
	var want string
	for n := 1; ; n++ {
		dir := t.TempDir()
		cfg := updateConfig(t, dir, 64)
		sys, err := NewLocalSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j, w := range work {
			if err := sys.Owner(j).Load(w.base); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.OutsourceAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		for j, w := range work {
			if _, err := sys.Owner(j).Update(context.Background(), w.add, w.remove); err != nil {
				t.Fatalf("owner %d update: %v", j, err)
			}
		}
		if want == "" {
			want = updateFingerprint(t, sys) // deterministic across iterations
		}

		// Crash server 0's compaction at ordering point n; servers 1-2
		// keep their uncompacted logs, so recovery also proves a mixed
		// fleet (one partially compacted, two not) stays consistent.
		e0 := sys.ServerEngine(0)
		step := 0
		var last string
		e0.SetCompactStepHook(func(s string) error {
			step++
			last = s
			if step == n {
				return errCrash
			}
			return nil
		})
		_, err = e0.Compact("main")
		completed := err == nil
		if err != nil && !errors.Is(err, errCrash) {
			t.Fatalf("step %d: unexpected compaction error: %v", n, err)
		}

		// Cold boot over the surviving disk state.
		sys2, err := NewLocalSystem(cfg)
		if err != nil {
			t.Fatalf("step %d (%s): recovery boot: %v", n, last, err)
		}
		// Owners reload their (updated) datasets — extreme queries
		// compute per-owner values from local data.
		for j, w := range work {
			if err := sys2.Owner(j).Load(w.final); err != nil {
				t.Fatal(err)
			}
		}
		for phi := 0; phi < 3; phi++ {
			rep, err := sys2.ServerEngine(phi).RecoveryReport()
			if err != nil {
				t.Fatalf("step %d: server %d recovery: %v", n, phi, err)
			}
			if len(rep.Quarantined) != 0 {
				t.Fatalf("step %d (%s): server %d quarantined: %+v", n, last, phi, rep.Quarantined)
			}
			if len(rep.Recovered) != 1 {
				t.Fatalf("step %d (%s): server %d recovered %+v", n, last, phi, rep.Recovered)
			}
		}
		if got := updateFingerprint(t, sys2); got != want {
			t.Fatalf("crash before step %d (%q): recovered answers diverged:\n--- want ---\n%s--- got ---\n%s", n, last, want, got)
		}
		if completed {
			if step == 0 {
				t.Fatal("compaction pass hit no ordering points")
			}
			t.Logf("drove %d ordering points (last %q)", step, last)
			return
		}
	}
}

// TestUpdatePlainTable: membership-only tables (no aggregation columns,
// no verification) update through the same path.
func TestUpdatePlainTable(t *testing.T) {
	dom, err := IntDomain(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Owners: 2, Domain: dom, Seed: [32]byte{3}}
	sys, err := NewLocalSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	load := func(j int, keys ...uint64) {
		rows := make([]Row, len(keys))
		for i, k := range keys {
			rows[i] = Row{IntKey: k}
		}
		if err := sys.Owner(j).Load(rows); err != nil {
			t.Fatal(err)
		}
	}
	load(0, 3, 5, 7)
	load(1, 3, 5, 9)
	if _, err := sys.OutsourceAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Owner 0 drops 5 and gains 9: intersection {3, 5} → {3, 9}.
	if _, err := sys.Owner(0).Update(context.Background(),
		[]Row{{IntKey: 9}}, []Row{{IntKey: 5}}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.PSI(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%v", res.Cells)
	if got != "[2 8]" { // cells are 0-based (IntKey 3 → cell 2, 9 → cell 8)
		t.Fatalf("PSI after update = %v", res.Cells)
	}
}

// TestFailedUpdateLeavesOwnerUntouched: an update one server refuses
// returns that server's error and folds nothing owner-side — not the
// loaded data, not the retained tables, not in a group whose own servers
// all took it — so the natural reaction, calling Update again with the
// same rows, applies the change exactly once: every server in turn
// refuses owner 0's first StoreDeltaRequest, over one server group and
// two and with one window or four, and the table then answers as a fresh
// outsource of the final data does.
func TestFailedUpdateLeavesOwnerUntouched(t *testing.T) {
	errRefused := errors.New("refused by the test")
	ctx := context.Background()
	for _, groups := range []int{1, 2} {
		for _, shard := range []uint64{0, 64} {
			work := updateWorkloads(3)
			build := func(rows func(updateWorkload) []Row) *System {
				cfg := updateConfig(t, "", shard)
				cfg.Groups = groups
				sys, err := NewLocalSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sys.Close)
				for j, w := range work {
					if err := sys.Owner(j).Load(rows(w)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := sys.OutsourceAll(ctx); err != nil {
					t.Fatal(err)
				}
				return sys
			}
			want := updateFingerprint(t, build(func(w updateWorkload) []Row { return w.final }))
			for g := 0; g < groups; g++ {
				for phi := 0; phi < 3; phi++ {
					t.Run(fmt.Sprintf("groups=%d/ShardCells=%d/refuser=g%d-s%d", groups, shard, g, phi), func(t *testing.T) {
						sys := build(func(w updateWorkload) []Row { return w.base })
						var refused atomic.Int32
						sys.interceptGroupServer(g, phi, func(inner transport.Handler) transport.Handler {
							return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
								if _, ok := req.(protocol.StoreDeltaRequest); ok && refused.Add(1) == 1 {
									return nil, errRefused
								}
								return inner.Handle(ctx, req)
							})
						})
						mine, other := cloneData(sys.Owner(0).Engine().Data()), cloneData(sys.Owner(1).Engine().Data())
						if _, err := sys.Owner(0).Update(ctx, work[0].add, work[0].remove); !errors.Is(err, errRefused) {
							t.Fatalf("refused update: err = %v, want the server's", err)
						}
						if got := sys.Owner(0).Engine().Data(); !reflect.DeepEqual(got, mine) {
							t.Errorf("the refused update changed owner 0's loaded data")
						}
						if got := sys.Owner(1).Engine().Data(); !reflect.DeepEqual(got, other) {
							t.Errorf("the refused update changed owner 1's loaded data")
						}
						for j, w := range work {
							if _, err := sys.Owner(j).Update(ctx, w.add, w.remove); err != nil {
								t.Fatalf("owner %d update after the refusal: %v", j, err)
							}
						}
						if got := updateFingerprint(t, sys); got != want {
							t.Errorf("retried update diverged from a fresh outsource of the final data:\n--- want ---\n%s--- got ---\n%s", want, got)
						}
					})
				}
			}
		}
	}
}

// TestShareStreamDeterministic: Config.Seed fixes every share the owners
// ever send — with four aggregation columns, whose sum and v-sum shares
// come off the root PRG one column after another, an outsource and an
// update put the same StoreRequest and StoreDeltaRequest payloads on
// every server in every run.
func TestShareStreamDeterministic(t *testing.T) {
	cols := []string{"a", "b", "c", "d"}
	row := func(key, v uint64) Row {
		r := Row{IntKey: key, Aggs: map[string]uint64{}}
		for i, col := range cols {
			r.Aggs[col] = v + uint64(i)
		}
		return r
	}
	run := func() map[string]any {
		dom, err := IntDomain(1, 64)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewLocalSystem(Config{
			Owners: 2, Domain: dom, AggColumns: cols, MaxAggValue: 1000, Verify: true,
			Seed: [32]byte{23}, ShardCells: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		var mu sync.Mutex
		sent := make(map[string]any)
		for phi := 0; phi < 3; phi++ {
			sys.interceptGroupServer(0, phi, func(inner transport.Handler) transport.Handler {
				return transport.HandlerFunc(func(ctx context.Context, req any) (any, error) {
					mu.Lock()
					switch r := req.(type) {
					case protocol.StoreRequest:
						sent[fmt.Sprintf("s%d/store/o%d/%d", phi, r.Owner, r.Shard.Offset)] = r
					case protocol.StoreDeltaRequest:
						sent[fmt.Sprintf("s%d/delta/o%d", phi, r.Owner)] = r
					}
					mu.Unlock()
					return inner.Handle(ctx, req)
				})
			})
		}
		for j := 0; j < 2; j++ {
			if err := sys.Owner(j).Load([]Row{row(5, 10), row(9, 20), row(uint64(30+j), 30)}); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		if _, err := sys.OutsourceAll(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Owner(0).Update(ctx, []Row{row(17, 40), row(9, 50)}, []Row{row(5, 10)}); err != nil {
			t.Fatal(err)
		}
		return sent
	}
	first := run()
	if want := 3 * (2*4 + 1); len(first) != want {
		t.Fatalf("captured %d requests, want %d (4 windows per owner and one update, at 3 servers)", len(first), want)
	}
	for rep := 1; rep < 20; rep++ {
		for key, got := range run() {
			if !reflect.DeepEqual(got, first[key]) {
				t.Fatalf("run %d: %s differs from the first run's under the same seed", rep, key)
			}
		}
	}
}

// TestOversizeUpdateRejectedWhole: an update whose requests exceed the
// frame cap fails with ErrFrameTooLarge before any server has received a
// byte of it and leaves the owner as it was, so shipping the same rows as
// two smaller updates succeeds and answers as the oracle does.
func TestOversizeUpdateRejectedWhole(t *testing.T) {
	const b = 64
	ctx := context.Background()
	sys := shape{owners: 4, groups: 1, b: b}.system(t) // the cap applies to encoded frames
	orc := loadPlanted(t, sys, plantedCells(sys, 5), 90)
	var calls [3]*callCounts
	for phi := range calls {
		calls[phi] = &callCounts{n: make(map[string]int)}
		sys.interceptGroupServer(0, phi, calls[phi].wrap)
	}
	var cells, vals []uint64
	for i := uint64(0); i < 40; i++ {
		cells, vals = append(cells, (i*37+3)%b), append(vals, 1+i)
	}
	update := func(lo, hi int) error {
		_, err := sys.Owner(0).UpdateCells(ctx, cells[lo:hi], map[string][]uint64{"v": vals[lo:hi]}, nil, nil)
		return err
	}
	before := cloneData(sys.Owner(0).Engine().Data())
	// Every server's request carries, in both position spaces, 40
	// positions and 40 shares per column, 8 bytes apiece for the Shamir
	// ones: framed, S2's — the smallest — is about 1.4 kB, and a 20-row
	// request to S0 about 0.75 kB.
	restore := transport.SetFrameLimit(1200)
	defer restore()
	if err := update(0, 40); !errors.Is(err, transport.ErrFrameTooLarge) {
		t.Fatalf("oversize update: err = %v, want ErrFrameTooLarge", err)
	}
	for phi := 0; phi < 3; phi++ {
		if got := calls[phi].rounds(); len(got) != 0 {
			t.Errorf("server %d received %v of the refused update", phi, got)
		}
		if n := sys.ServerEngine(phi).DeltaBacklog(tableName); n != 0 {
			t.Errorf("server %d delta backlog = %d after the refused update", phi, n)
		}
	}
	if after := sys.Owner(0).Engine().Data(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused update changed the owner's loaded data")
	}
	for _, half := range [][2]int{{0, 20}, {20, 40}} {
		if err := update(half[0], half[1]); err != nil {
			t.Fatalf("rows [%d,%d) as their own update: %v", half[0], half[1], err)
		}
	}
	restore() // the queries below move whole vectors
	orc.sets[0] = append(slices.Clone(orc.sets[0]), cells...)
	orc.vals[0] = append(slices.Clone(orc.vals[0]), vals...)
	orc.rebuild()
	directAnswers(t, sys, orc)
}
