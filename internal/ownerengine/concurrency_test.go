package ownerengine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// loadRigData gives each of the rig's owners a table with a planted
// intersection at cells 1 and 3 plus per-owner noise.
func loadRigData(t *testing.T, r *rig, b uint64) {
	t.Helper()
	for j, o := range r.owners {
		cells := []uint64{1, 3, uint64(4+j) % b}
		vs := make([]uint64, len(cells))
		for i := range vs {
			vs[i] = uint64(10*j + i + 1)
		}
		if err := o.Load(&Data{Cells: cells, Aggs: map[string][]uint64{"v": vs}}); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Outsource(context.Background(), OutsourceSpec{
			Table: "t", AggCols: []string{"v"}, Verify: true, WithCount: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentQueriesSameOwner runs PSI, PSU, count and aggregation
// queries simultaneously through ONE owner engine: per-query sessions
// must keep them isolated and every answer equal to the serial one.
func TestConcurrentQueriesSameOwner(t *testing.T) {
	r := newRig(t, 3, 8)
	loadRigData(t, r, 8)
	o := r.owners[0]
	ctx := context.Background()

	queries := []Query{
		{Kind: OpPSI, Table: "t", Verify: true},
		{Kind: OpPSU, Table: "t"},
		{Kind: OpPSICount, Table: "t", Verify: true},
		{Kind: OpPSIAvg, Table: "t", Cols: []string{"v"}, Verify: true},
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		var err error
		if want[i], err = o.Exec(ctx, q, nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 20*len(queries))
	for i := 0; i < 20; i++ {
		for qi, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := o.Exec(ctx, q, nil)
				if err != nil {
					errs <- err
					return
				}
				w := want[qi]
				if !reflect.DeepEqual(res.Cells, w.Cells) || res.Count != w.Count ||
					!reflect.DeepEqual(res.Sums, w.Sums) || !reflect.DeepEqual(res.Counts, w.Counts) {
					errs <- fmt.Errorf("%s diverged: %v %d %v %v != %v %d %v %v", q.Kind,
						res.Cells, res.Count, res.Sums, res.Counts, w.Cells, w.Count, w.Sums, w.Counts)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentOutsourceAndQuery outsources a second table while
// queries run against the first: session-scoped randomness and the
// locked root PRG must keep both streams race-free.
func TestConcurrentOutsourceAndQuery(t *testing.T) {
	r := newRig(t, 3, 8)
	loadRigData(t, r, 8)
	ctx := context.Background()
	o := r.owners[0]
	psi := Query{Kind: OpPSI, Table: "t"}
	psiWant, err := o.Exec(ctx, psi, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			res, err := o.Exec(ctx, psi, nil)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Cells, psiWant.Cells) {
				errs <- fmt.Errorf("PSI diverged during concurrent outsourcing")
			}
		}()
		go func(i int) {
			defer wg.Done()
			// Every owner must re-outsource the side table for it to be
			// queryable; here we only exercise owner 0's write path racing
			// its own reads.
			if _, err := o.Outsource(ctx, OutsourceSpec{Table: fmt.Sprintf("side-%d", i)}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionQIDsUnique mints sessions from many goroutines and checks
// query ids never collide (collisions would cross-wire server state).
func TestSessionQIDsUnique(t *testing.T) {
	r := newRig(t, 2, 8)
	o := r.owners[0]
	const n = 2048
	var mu sync.Mutex
	seen := make(map[string]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qid := o.groups[0].newSession("stress").qid
			mu.Lock()
			defer mu.Unlock()
			if seen[qid] {
				t.Errorf("duplicate qid %q", qid)
			}
			seen[qid] = true
		}()
	}
	wg.Wait()
}
