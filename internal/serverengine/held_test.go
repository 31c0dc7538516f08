package serverengine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// heldDeploy is the release deployment on the cache-off tier, with the
// permuted rounds it serves.
type heldDeploy struct{ *releaseDeploy }

// round sends S0 and S1 the given windows of one permuted round under
// qid — a verified count, or with psu a PSU count — each window on its
// own goroutine, and returns the cells of the joined replies that
// reconstruct to a member: the count and, for a count, its proof.
func (d heldDeploy) round(qid string, windows []protocol.Range, psu bool) (count, proof int, err error) {
	type reply struct {
		out   []uint32
		vout  []uint32
		out16 []uint16
	}
	replies := make([][]reply, 2)
	errs := make(chan error, 2*len(windows))
	var wg sync.WaitGroup
	for phi := range replies {
		replies[phi] = make([]reply, len(windows))
		for w, rg := range windows {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var req any = protocol.CountRequest{Table: "t", QueryID: qid, Verify: true, Shard: rg}
				if psu {
					req = protocol.PSURequest{Table: "t", QueryID: qid, Permute: true, Shard: rg}
				}
				r, err := d.engines[phi].Handle(context.Background(), req)
				switch r := r.(type) {
				case protocol.CountReply:
					replies[phi][w] = reply{out: r.Out, vout: r.Vout}
				case protocol.PSUReply:
					replies[phi][w] = reply{out16: r.Out}
				}
				if err != nil {
					errs <- fmt.Errorf("server %d window %v: %w", phi, rg, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, 0, err
	}
	for w := range windows {
		a, b := replies[0][w], replies[1][w]
		if psu {
			for i := range a.out16 {
				if (uint64(a.out16[i])+uint64(b.out16[i]))%d.sys.Delta != 0 {
					count++
				}
			}
			continue
		}
		count += len(d.ones(a.out, b.out))
		proof += len(d.ones(a.vout, b.vout))
	}
	return count, proof, nil
}

// heldState is one server's held bytes and the held sums among them.
type heldState struct {
	bytes int64
	sums  int
}

// held reports both additive servers' held state.
func (d heldDeploy) held() [2]heldState {
	var out [2]heldState
	for phi := range out {
		e := d.engines[phi]
		e.heldMu.Lock()
		out[phi] = heldState{e.HeldBytes(), len(e.held)}
		e.heldMu.Unlock()
	}
	return out
}

// age makes every held sum look idle for twice heldTTL.
func (d heldDeploy) age() {
	for _, e := range d.engines {
		e.heldMu.Lock()
		for _, h := range e.held {
			h.idle = h.idle.Add(-2 * heldTTL)
		}
		e.heldMu.Unlock()
	}
}

// TestHeldSumsRetiredOnEveryPath: with the cache off, a permuted round
// holds its owner sums only while it is in flight. After a completed
// round, a repeated window, QueryDone, a round cut off after one window,
// a round abandoned before its last and a failed build, each server's
// held bytes return to their value before the query — at once, or, for
// the cut-off and abandoned rounds, when the first round made past
// heldTTL sweeps them. An update landing between two windows of a
// verified count does not reach the round's later windows: the round
// reads one snapshot, so its count and its proof still agree.
func TestHeldSumsRetiredOnEveryPath(t *testing.T) {
	d := heldDeploy{newReleaseDeploy(t, func(st *sharestore.Store) Options { return Options{Threads: 2, Store: st} })}
	windows := releaseWindows[1]
	inter, union, _, _ := d.oracle()
	before := d.held()
	// A verified count holds χ and χ̄, 2 bytes per cell each.
	holding := func(rounds int) [2]heldState {
		out := before
		for phi := range out {
			out[phi].bytes += int64(rounds * 2 * 2 * releaseCells)
			out[phi].sums += 2 * rounds
		}
		return out
	}
	expect := func(what string, want [2]heldState) {
		t.Helper()
		if got := d.held(); got != want {
			t.Errorf("%s: servers hold %+v, want %+v", what, got, want)
		}
	}
	serve := func(qid string, ws []protocol.Range) (count, proof int) {
		t.Helper()
		count, proof, err := d.round(qid, ws, false)
		if err != nil {
			t.Fatalf("round %s: %v", qid, err)
		}
		return count, proof
	}
	check := func(qid string, want int) {
		t.Helper()
		if count, proof := serve(qid, windows); count != want || proof != want {
			t.Errorf("round %s: count %d, proof %d, want %d", qid, count, proof, want)
		}
	}

	// Completed rounds, two of them at once, and a PSU count.
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if count, proof, err := d.round(fmt.Sprintf("done%d", c), windows, false); err != nil || count != len(inter) || proof != len(inter) {
				t.Errorf("concurrent round %d: count %d, proof %d, %v, want %d", c, count, proof, err, len(inter))
			}
		}()
	}
	wg.Wait()
	if count, _, err := d.round("psucount", windows, true); err != nil || count != len(union) {
		t.Errorf("psu count = %d, %v, want %d", count, err, len(union))
	}
	expect("completed rounds", before)

	// A repeated window counts once: the first window three times and the
	// second leave the last window's cells unserved.
	for range 3 {
		serve("probe", windows[:1])
	}
	serve("probe", windows[1:2])
	expect("repeated window", holding(1))
	serve("probe", windows[2:])
	expect("repeated window, round complete", before)

	// QueryDone releases a round in flight.
	serve("retired", windows[:1])
	expect("retired round", holding(1))
	for _, e := range d.engines[:2] {
		if _, err := e.Handle(context.Background(), protocol.QueryDoneRequest{QueryID: "retired"}); err != nil {
			t.Fatal(err)
		}
	}
	expect("retired round after QueryDone", before)

	// A round cut off after one window and one abandoned before its last
	// window stay held while they are fresh — a new round does not sweep
	// them — and the first round made past heldTTL sweeps them.
	serve("cut", windows[:1])
	serve("abandoned", windows[:2])
	check("fresh", len(inter))
	expect("fresh abandoned rounds", holding(2))
	d.age()
	check("late", len(inter))
	expect("abandoned rounds past the TTL", before)

	// An update between two windows: the round's later windows read the
	// snapshot its first window held; the next round sees the update.
	count, proof := serve("update", windows[:1])
	open := d.held()
	d.update(t, []uint64{0, 8, 16, 47, 95}) // three common cells leave owner 0's set
	for phi, now := range d.held() {        // the overlay's entries are held from here on
		before[phi].bytes += now.bytes - open[phi].bytes
	}
	rest, restProof := serve("update", windows[1:])
	if count+rest != len(inter) || proof+restProof != len(inter) {
		t.Errorf("round across an update: count %d, proof %d, want the snapshot's %d", count+rest, proof+restProof, len(inter))
	}
	expect("round across an update", before)
	after, _, _, _ := d.oracle()
	if len(after) == len(inter) {
		t.Fatal("the update left the intersection's size as it was")
	}
	check("after-update", len(after))

	// A build that fails holds nothing.
	e := d.engines[0]
	chunk := filepath.Join(e.opts.Store.Dir(), "t", "o1.chi.colv2", "c2.ck")
	if err := os.Rename(chunk, chunk+".away"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Handle(context.Background(), protocol.CountRequest{Table: "t", QueryID: "broken", Verify: true, Shard: windows[0]}); err == nil {
		t.Error("a count over a missing chunk was served")
	}
	if err := os.Rename(chunk+".away", chunk); err != nil {
		t.Fatal(err)
	}
	expect("failed build", before)
}
