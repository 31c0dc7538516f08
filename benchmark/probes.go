package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"prism/internal/field"
	"prism/internal/modmath"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/protocol"
	"prism/internal/share"
	"prism/internal/sharestore"
	"prism/internal/transport"
)

// The layer probes time single calls into one layer from outside it. Each
// repeats probeReps times and reports the median, as ns per cell where
// the work is per cell, so numbers from differently sized deployments
// (a 2-group server holds half the cells) read on one scale.
const probeReps = 5

const paperDelta = 113 // the paper's additive-group prime δ

// tableName is Config.TableName's default, which the deployments keep.
const tableName = "main"

// timeMedian runs f probeReps times inside a span each and returns the
// median duration in nanoseconds.
func timeMedian(tr *tracer, name string, f func() error) (float64, error) {
	samples := make([]float64, probeReps)
	for i := range samples {
		end := tr.begin(name)
		start := time.Now()
		err := f()
		samples[i] = float64(time.Since(start).Nanoseconds())
		end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(samples), nil
}

// probeServer drives group 0's server 0 directly, once per read request
// type over the whole table, and splits each reply's own Stats per cell.
// It returns the replies so the codec probe replays real frames. The
// same requests over one shard window go to diag.
func probeServer(ctx context.Context, d *deployment, m, diag map[string]float64) (map[string]any, error) {
	eng := d.sys.ServerEngine(0)
	rep, err := eng.Handle(ctx, protocol.ListTablesRequest{})
	if err != nil {
		return nil, err
	}
	tables := rep.(protocol.ListTablesReply).Tables
	if len(tables) != 1 {
		return nil, fmt.Errorf("server probe: %d tables served, want 1", len(tables))
	}
	b := tables[0].Spec.B
	ones := make([]uint64, b)
	for i := range ones {
		ones[i] = 1
	}

	replies := make(map[string]any)
	for _, scope := range []struct {
		suffix string
		shard  protocol.Range
		into   map[string]float64
	}{
		{"", protocol.Range{}, m},
		{".window", protocol.Range{Offset: 0, Count: min(d.sh.ShardCells, b)}, diag},
	} {
		n := b
		if scope.shard.Sharded() {
			n = scope.shard.Count
		}
		for _, typ := range readTypes {
			qid := "probe-" + typ + scope.suffix
			var req any
			switch typ {
			case "psi":
				req = protocol.PSIRequest{Table: tableName, QueryID: qid, Shard: scope.shard}
			case "count":
				req = protocol.CountRequest{Table: tableName, QueryID: qid, Shard: scope.shard, Verify: true}
			case "psu":
				req = protocol.PSURequest{Table: tableName, QueryID: qid, Shard: scope.shard}
			case "agg":
				req = protocol.AggRequest{Table: tableName, QueryID: qid, Shard: scope.shard,
					Cols: []string{aggCol}, Z: ones[:n], VZ: ones[:n]}
			}
			var fetch, patch, compute []float64
			_, err := timeMedian(d.tr, "probe:server:"+typ+scope.suffix, func() error {
				rep, err := eng.Handle(ctx, req)
				if err != nil {
					return err
				}
				st := replyStats(rep)
				fetch = append(fetch, float64(st.FetchNS))
				patch = append(patch, float64(st.PatchNS))
				compute = append(compute, float64(st.ComputeNS))
				if scope.suffix == "" {
					replies[typ] = rep
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if _, err := eng.Handle(ctx, protocol.QueryDoneRequest{QueryID: qid}); err != nil {
				return nil, err
			}
			scope.into["server_fetch_ns_per_cell."+typ+scope.suffix] = median(fetch) / float64(n)
			scope.into["server_patch_ns_per_cell."+typ+scope.suffix] = median(patch) / float64(n)
			scope.into["server_compute_ns_per_cell."+typ+scope.suffix] = median(compute) / float64(n)
		}
	}
	return replies, nil
}

func replyStats(rep any) protocol.Stats {
	switch r := rep.(type) {
	case protocol.PSIReply:
		return r.Stats
	case protocol.CountReply:
		return r.Stats
	case protocol.PSUReply:
		return r.Stats
	case protocol.AggReply:
		return r.Stats
	}
	return protocol.Stats{}
}

// sink keeps the MulMod loop's result live.
var sink uint64

// probeKernels times the arithmetic the owner side is made of over
// cells-element vectors, and returns one owner's worth of real share
// vectors for the codec probe's StoreRequest.
func probeKernels(tr *tracer, cells int, m map[string]float64) (protocol.StoreRequest, error) {
	g := prg.New(prg.SeedFromString("benchmark/probes"))
	n := float64(cells)

	eta, err := modmath.FindEta(paperDelta, paperDelta)
	if err != nil {
		return protocol.StoreRequest{}, err
	}
	a, b := make([]uint64, cells), make([]uint64, cells)
	g.Fill(a, eta)
	g.Fill(b, eta)
	ns, _ := timeMedian(tr, "probe:kernel:mulmod", func() error {
		for i := range a {
			sink += modmath.MulMod(a[i], b[i], eta)
		}
		return nil
	})
	m["mulmod_ns"] = ns / n

	chi := make([]uint16, cells)
	for i := range chi {
		chi[i] = uint16(a[i] & 1)
	}
	var chiShares [][]uint16
	ns, _ = timeMedian(tr, "probe:kernel:additive_split", func() error {
		chiShares = share.AdditiveSplitVector(g, chi, paperDelta, 2)
		return nil
	})
	m["additive_split_ns_per_cell"] = ns / n

	p := perm.Random(g, cells)
	dst := make([]uint64, cells)
	ns, _ = timeMedian(tr, "probe:kernel:perm_apply", func() error {
		perm.Apply(p, a, dst)
		return nil
	})
	m["perm_apply_ns_per_cell"] = ns / n

	// One owner's upload to one server, as the owner engine assembles it
	// with Verify on: two additive χ vectors and four Shamir columns.
	secrets := make([]field.Elem, cells)
	for i := range secrets {
		secrets[i] = field.Reduce(uint64(chi[i]) * (1 + a[i]%maxValue))
	}
	col := func() []uint64 { return share.ShamirSplitVector(g, secrets, 1, 1)[0] } // server 0's point only
	return protocol.StoreRequest{
		Owner:     0,
		Spec:      protocol.TableSpec{Name: tableName, B: uint64(cells), AggCols: []string{aggCol}, HasVerify: true, HasCount: true},
		ChiAdd:    chiShares[0],
		ChiBarAdd: chiShares[1],
		SumCols:   map[string][]uint64{aggCol: col()},
		VSumCols:  map[string][]uint64{aggCol: col()},
		CountCol:  col(),
		VCountCol: col(),
	}, nil
}

// probeCodec measures what the gob wire costs per message type: the same
// transport.Network.Call against an echo handler with EncodeWire on and
// off. Reply types ride back from a ping; the store request rides out.
func probeCodec(ctx context.Context, tr *tracer, replies map[string]any, store protocol.StoreRequest, m map[string]float64) error {
	frames := []struct {
		msg   string
		frame any
		cells int
	}{
		{"psi_reply", replies["psi"], len(replies["psi"].(protocol.PSIReply).Out)},
		{"count_reply", replies["count"], len(replies["count"].(protocol.CountReply).Out)},
		{"agg_reply", replies["agg"], len(replies["agg"].(protocol.AggReply).Sums[aggCol])},
		{"store_request", store, len(store.ChiAdd)},
	}
	for _, f := range frames {
		var cost [2]float64
		var bytes int64
		for i, encode := range []bool{false, true} {
			net := transport.NewNetwork()
			net.EncodeWire = encode
			var req any = protocol.PingRequest{}
			var reply any = f.frame
			if f.msg == "store_request" {
				req, reply = f.frame, protocol.StoreReply{Cells: uint64(f.cells)}
			}
			net.Register("echo", transport.HandlerFunc(func(context.Context, any) (any, error) { return reply, nil }))
			ns, err := timeMedian(tr, fmt.Sprintf("probe:codec:%s:encode=%v", f.msg, encode), func() error {
				_, err := net.Call(ctx, "echo", req)
				return err
			})
			if err != nil {
				return err
			}
			cost[i], bytes = ns, net.PeakFrameBytes()
		}
		m["codec_ns_per_cell."+f.msg] = (cost[1] - cost[0]) / float64(f.cells)
		m["frame_bytes_per_cell."+f.msg] = float64(bytes) / float64(f.cells)
	}
	return nil
}

// probeStore times the share store's calls on a scratch store of cells
// cells, next to copy() of the same bytes as the hardware roof.
func probeStore(tr *tracer, dir string, cells int, m map[string]float64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := sharestore.Open(dir)
	if err != nil {
		return err
	}
	g := prg.New(prg.SeedFromString("benchmark/store"))
	u64 := make([]uint64, cells)
	g.Fill(u64, field.P)
	u16 := make([]uint16, cells)
	g.FillUint16(u16, paperDelta)
	n := float64(cells)

	dst := make([]uint64, cells)
	ns, _ := timeMedian(tr, "probe:store:memcpy", func() error { copy(dst, u64); return nil })
	m["memcpy_roof_ns_per_cell"] = ns / n

	if ns, err = timeMedian(tr, "probe:store:WriteU64", func() error { return st.WriteU64("t", "u64", u64) }); err != nil {
		return err
	}
	m["store_write_ns_per_cell"] = ns / n
	if err := st.WriteU16("t", "u16", u16); err != nil {
		return err
	}
	if ns, err = timeMedian(tr, "probe:store:ReadU64Range", func() error {
		_, err := st.ReadU64Range("t", "u64", 0, uint64(cells))
		return err
	}); err != nil {
		return err
	}
	m["store_read_ns_per_cell.u64"] = ns / n
	if ns, err = timeMedian(tr, "probe:store:ReadU16Range", func() error {
		_, err := st.ReadU16Range("t", "u16", 0, uint64(cells))
		return err
	}); err != nil {
		return err
	}
	m["store_read_ns_per_cell.u16"] = ns / n

	// 64 positions spread over the column, as a compaction pass or one
	// delta window would touch them.
	const touched = 64
	pos, vals := make([]uint64, touched), make([]uint64, touched)
	for i := range pos {
		pos[i], vals[i] = uint64(i*(cells/touched)), uint64(i)
	}
	if ns, err = timeMedian(tr, "probe:store:PatchCells", func() error {
		return st.PatchCells("t", "u64", 8, pos, vals)
	}); err != nil {
		return err
	}
	m["store_patch_us"] = ns / 1e3
	var seq uint64
	if ns, err = timeMedian(tr, "probe:store:AppendDeltaSeg", func() error {
		seq++
		return st.AppendDeltaSeg("t", seq, []sharestore.DeltaCol{{Name: "u64", Width: 8, Pos: pos, Vals: vals}})
	}); err != nil {
		return err
	}
	m["delta_append_us"] = ns / 1e3
	return nil
}
