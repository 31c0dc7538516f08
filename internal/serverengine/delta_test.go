package serverengine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
	"prism/internal/sharestore"
)

// TestStoreDeltaRejections walks every malformed StoreDeltaRequest the
// server refuses — on RAM and disk engines, on an additive-share server
// (S0) and on the Shamir-only one (S2) — and holds each to the same
// outcome: an error, and nothing absorbed (delta backlog, held bytes,
// sessions and the on-disk delta log's records all unchanged). Each case mutates a
// request the engine accepts as it is, so the mutation is the reason for
// the refusal.
func TestStoreDeltaRejections(t *testing.T) {
	const b = 16
	specs := []protocol.TableSpec{
		{Name: "full", B: b, AggCols: []string{"v"}, HasVerify: true, HasCount: true, Plain: true},
		{Name: "noverify", B: b, AggCols: []string{"v"}, HasCount: true, Plain: true},
		{Name: "nocount", B: b, AggCols: []string{"v"}, HasVerify: true, Plain: true},
	}
	// valid is an update of two cells that server phi accepts for spec.
	valid := func(phi int, spec protocol.TableSpec) protocol.StoreDeltaRequest {
		r := protocol.StoreDeltaRequest{
			Owner: 0, Table: spec.Name,
			Pos:  []uint64{1, 5},
			Sums: map[string][]uint64{"v": {10, 11}},
		}
		if phi < 2 {
			r.Chi = []uint16{3, 4}
		}
		if spec.HasCount {
			r.Cnt = []uint64{20, 21}
		}
		if spec.HasVerify {
			r.VPos = []uint64{2, 7}
			r.VSums = map[string][]uint64{"v": {12, 13}}
			if phi < 2 {
				r.ChiBar = []uint16{5, 6}
			}
			if spec.HasCount {
				r.VCnt = []uint64{22, 23}
			}
		}
		return r
	}
	type rejection struct {
		name   string
		spec   int   // index into specs of the table the request names
		only   []int // servers the case applies to; nil is both
		mutate func(r *protocol.StoreDeltaRequest)
	}
	additive, shamirOnly := []int{0}, []int{2}
	cases := []rejection{
		{"Pos at B", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Pos[1] = b }},
		{"VPos at B", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VPos[1] = b }},
		{"Pos descending", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Pos = []uint64{5, 1} }},
		{"Pos duplicate", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Pos = []uint64{5, 5} }},
		{"VPos descending", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VPos = []uint64{7, 2} }},
		{"VPos duplicate", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VPos = []uint64{7, 7} }},

		{"Chi short", 0, additive, func(r *protocol.StoreDeltaRequest) { r.Chi = r.Chi[:1] }},
		{"Chi long", 0, additive, func(r *protocol.StoreDeltaRequest) { r.Chi = append(r.Chi, 1) }},
		{"Sums short", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Sums["v"] = r.Sums["v"][:1] }},
		{"Sums long", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Sums["v"] = append(r.Sums["v"], 1) }},
		{"Sums absent", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Sums = nil }},
		{"Cnt short", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Cnt = r.Cnt[:1] }},
		{"Cnt absent", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Cnt = nil }},
		{"ChiBar short", 0, additive, func(r *protocol.StoreDeltaRequest) { r.ChiBar = r.ChiBar[:1] }},
		{"VSums short", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VSums["v"] = r.VSums["v"][:1] }},
		{"VSums absent", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VSums = nil }},
		{"VCnt long", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VCnt = append(r.VCnt, 1) }},
		{"VCnt absent", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VCnt = nil }},
		{"Pos longer than its columns", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Pos = []uint64{1, 5, 9} }},
		{"VPos longer than its columns", 0, nil, func(r *protocol.StoreDeltaRequest) { r.VPos = []uint64{2, 7, 9} }},

		{"Chi to S2", 0, shamirOnly, func(r *protocol.StoreDeltaRequest) { r.Chi = []uint16{3, 4} }},
		{"ChiBar to S2", 0, shamirOnly, func(r *protocol.StoreDeltaRequest) { r.ChiBar = []uint16{5, 6} }},
		{"Chi missing on S0", 0, additive, func(r *protocol.StoreDeltaRequest) { r.Chi = nil }},
		{"ChiBar missing on S0", 0, additive, func(r *protocol.StoreDeltaRequest) { r.ChiBar = nil }},

		{"VPos on a non-verify table", 1, nil, func(r *protocol.StoreDeltaRequest) { r.VPos = []uint64{2, 7} }},
		{"ChiBar on a non-verify table", 1, nil, func(r *protocol.StoreDeltaRequest) { r.ChiBar = []uint16{5, 6} }},
		{"VSums on a non-verify table", 1, nil, func(r *protocol.StoreDeltaRequest) {
			r.VSums = map[string][]uint64{"v": {12, 13}}
		}},
		{"VCnt on a non-verify table", 1, nil, func(r *protocol.StoreDeltaRequest) { r.VCnt = []uint64{22, 23} }},
		{"Cnt on a table without counts", 2, nil, func(r *protocol.StoreDeltaRequest) { r.Cnt = []uint64{20, 21} }},
		{"a sum column the spec lacks", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Sums["w"] = []uint64{1, 2} }},
		{"only a sum column the spec lacks", 0, nil, func(r *protocol.StoreDeltaRequest) {
			r.Sums = map[string][]uint64{"w": {1, 2}}
		}},

		{"unknown table", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Table = "nosuch" }},
		{"owner below range", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Owner = -1 }},
		{"owner at M", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Owner = 3 }},
		{"owner not yet outsourced", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Owner = 2 }},
		{"wrong Group", 0, nil, func(r *protocol.StoreDeltaRequest) { r.Group = 1 }},
	}

	for _, disk := range []bool{false, true} {
		// Three owners in the view, two of them outsourced (storeSpec).
		engines := make([]*Engine, 3)
		stores := make([]*sharestore.Store, 3)
		for phi := range engines {
			opts := Options{Threads: 2}
			if disk {
				st, err := sharestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				st.SetChunkCells(8)
				stores[phi], opts.Store = st, st
			}
			engines[phi] = New(fullView(t, phi, 3, b), opts)
		}
		for _, spec := range specs {
			storeSpec(t, engines, spec)
		}
		for _, phi := range []int{0, 2} {
			e := engines[phi]
			// state is everything a refused delta must leave alone.
			state := func() string {
				s := fmt.Sprintf("held=%d sessions=%d", e.HeldBytes(), e.Sessions())
				for _, spec := range specs {
					s += fmt.Sprintf(" %s:backlog=%d", spec.Name, e.DeltaBacklog(spec.Name))
					if disk {
						s += fmt.Sprintf(",records=%v", logSeqs(t, stores[phi], spec.Name))
					}
				}
				return s
			}
			before := state()
			for _, tc := range cases {
				if tc.only != nil && !slices.Contains(tc.only, phi) {
					continue
				}
				t.Run(fmt.Sprintf("disk=%v/S%d/%s", disk, phi, tc.name), func(t *testing.T) {
					r := valid(phi, specs[tc.spec])
					tc.mutate(&r)
					if reply, err := e.Handle(context.Background(), r); err == nil {
						t.Errorf("accepted: %+v", reply)
					}
					if after := state(); after != before {
						t.Errorf("refused delta changed server state:\n before %s\n after  %s", before, after)
					}
				})
			}
			// The unmutated requests are accepted: entries in both
			// position spaces, one log record each.
			for _, spec := range specs {
				r := valid(phi, spec)
				reply, err := e.Handle(context.Background(), r)
				if err != nil {
					t.Fatalf("disk=%v S%d: valid delta on %q refused: %v", disk, phi, spec.Name, err)
				}
				if got := reply.(protocol.StoreDeltaReply).Entries; got == 0 || got != e.DeltaBacklog(spec.Name) {
					t.Errorf("disk=%v S%d %q: reply counts %d entries, backlog %d", disk, phi, spec.Name, got, e.DeltaBacklog(spec.Name))
				}
				if disk {
					if seqs := logSeqs(t, stores[phi], spec.Name); len(seqs) != 1 {
						t.Errorf("disk S%d %q: delta log records %v after one update, want one", phi, spec.Name, seqs)
					}
				}
			}
		}
	}
}

// TestCompactEveryTicker: an engine started with Options.CompactEvery
// folds its delta backlog down without any explicit Compact — on disk
// deleting the sealed log files too — and Close stops the ticker and
// is idempotent.
func TestCompactEveryTicker(t *testing.T) {
	const b = 16
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasCount: true, Plain: true}
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			opts := Options{Threads: 1, CompactEvery: 10 * time.Millisecond}
			if disk {
				st, err := sharestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				opts.Store = st
			}
			e := New(fullView(t, 0, 3, b), opts)
			defer e.Close()
			storeSpec(t, []*Engine{e}, spec)
			if _, err := e.Handle(context.Background(), protocol.StoreDeltaRequest{
				Owner: 0, Table: "t", Pos: []uint64{1, 5},
				Chi: []uint16{3, 4}, Sums: map[string][]uint64{"v": {10, 11}}, Cnt: []uint64{20, 21},
			}); err != nil {
				t.Fatal(err)
			}
			// A pass empties the overlay first and deletes the log files last.
			drained := func() bool {
				if e.DeltaBacklog("t") != 0 {
					return false
				}
				if opts.Store == nil {
					return true
				}
				return len(logSeqs(t, opts.Store, "t")) == 0
			}
			for deadline := time.Now().Add(5 * time.Second); !drained(); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("backlog of %d entries, or its delta log records, left after 5s of ticker compaction", e.DeltaBacklog("t"))
				}
			}
			e.Close()
			select {
			case <-e.compactDone:
			default:
				t.Fatal("Close returned with the ticker still running")
			}
			e.Close() // idempotent with the deferred call
		})
	}
}

// logSeqs is the sequence of each record in a table's delta log.
func logSeqs(t *testing.T, st *sharestore.Store, table string) []uint64 {
	t.Helper()
	recs, err := st.ReadDeltaLog(table)
	if err != nil {
		t.Fatal(err)
	}
	seqs := []uint64{}
	for _, r := range recs {
		seqs = append(seqs, r.Seq)
	}
	return seqs
}

// logFiles lists a table's delta log directory.
func logFiles(t *testing.T, st *sharestore.Store, table string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(st.Dir(), table, "deltalog"))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDeltaLogOneFile pins the log's file count: the updates to a table
// after its last compaction are records of one file, which only the
// first of them opens; a compaction pass deletes the files it sealed and
// leaves the records that arrived during it, in one file; Close leaves
// the store with no log file open.
func TestDeltaLogOneFile(t *testing.T) {
	const b, n = 16, 5
	spec := protocol.TableSpec{Name: "t", B: b, AggCols: []string{"v"}, HasCount: true, Plain: true}
	st, err := sharestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(fullView(t, 0, 3, b), Options{Threads: 1, Store: st})
	defer e.Close()
	storeSpec(t, []*Engine{e}, spec)
	update := func(p uint64) {
		t.Helper()
		if _, err := e.Handle(context.Background(), protocol.StoreDeltaRequest{
			Owner: 0, Table: "t", Pos: []uint64{p},
			Chi: []uint16{1}, Sums: map[string][]uint64{"v": {p}}, Cnt: []uint64{1},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// updates sends k updates and checks each leaves the file set first
	// had, and the log the records want.
	updates := func(k int, first []string, want []uint64) {
		t.Helper()
		for i := range k {
			update(uint64(i))
			if got := logFiles(t, st, "t"); first != nil && !slices.Equal(got, first) {
				t.Fatalf("update %d changed the log's files %v to %v", i, first, got)
			}
		}
		if got := logSeqs(t, st, "t"); !slices.Equal(got, want) {
			t.Fatalf("log records %v, want %v", got, want)
		}
	}
	update(0)
	files := logFiles(t, st, "t")
	if !slices.Equal(files, []string{"l1.dlog"}) {
		t.Fatalf("first update left files %v, want [l1.dlog]", files)
	}
	updates(n-1, files, []uint64{1, 2, 3, 4, 5})

	// Two updates land while a pass runs, after its snapshot.
	e.SetCompactStepHook(func(step string) error {
		if step == "swap" {
			update(7)
			update(8)
		}
		return nil
	})
	cs, err := e.Compact("t")
	e.SetCompactStepHook(nil)
	if err != nil || cs.Files != 1 {
		t.Fatalf("compaction deleted %d files (%v), want 1", cs.Files, err)
	}
	if got := logFiles(t, st, "t"); !slices.Equal(got, []string{"l6.dlog"}) {
		t.Fatalf("after the pass the log holds files %v, want [l6.dlog]", got)
	}
	updates(n, []string{"l6.dlog"}, []uint64{6, 7, 8, 9, 10, 11, 12})

	if _, err := e.Compact("t"); err != nil {
		t.Fatal(err)
	}
	if got := logFiles(t, st, "t"); len(got) != 0 {
		t.Fatalf("a pass with no update during it left files %v", got)
	}
	update(1)
	e.Close()
	if fds := openLogFiles(t, st.Dir()); fds != 0 {
		t.Fatalf("%d delta log files open after Close", fds)
	}
}

// openLogFiles counts this process's descriptors open on a delta log
// file under dir.
func openLogFiles(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil &&
			strings.HasPrefix(target, dir) && strings.HasSuffix(target, ".dlog") {
			n++
		}
	}
	return n
}
