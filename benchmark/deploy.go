package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"prism"
	"prism/internal/gateway"
	"prism/internal/prg"
	"prism/internal/workload"
)

// shape is the fixed size every workload runs at. Only the smoke test
// uses another one.
type shape struct {
	Cells        uint64
	Owners       int
	KeysPerOwner int
	CommonKeys   int    // keys planted at every owner, so PSI/sum/max answer non-trivially
	ShardCells   uint64 // window of the sharded workloads
	HotChunks    uint64 // cache budget of the cached workloads; the columns fit
	DeltaMax     int    // compaction threshold of update-read
	Updates      int    // single-tuple updates opening each update-read round
	Setups       int    // timed set-ups per run; setup_s is their median
	Clients      int    // closed-loop clients, also MaxInflight
	TracedRounds int    // serial rounds of the traced pass
}

// fullShape is a quarter of ROADMAP's 1M cells on purpose. The driver's
// time budget leaves a 22 s window per run; at 2^18 cells a client round
// takes 0.5–0.9 s under load, so the window holds ≥45 rounds on the
// slowest workload and several compaction cycles on update-read, while
// each server's 94 MB of share columns still sit outside the last-level
// cache.
var fullShape = shape{
	Cells:        1 << 18,
	Owners:       10,
	KeysPerOwner: 26214,
	CommonKeys:   64,
	ShardCells:   65536,
	HotChunks:    256 << 20,
	DeltaMax:     1024,
	Updates:      16,
	Setups:       3,
	Clients:      min(runtime.NumCPU(), 4),
	TracedRounds: 12,
}

// maxValue bounds the generated aggregation values.
const maxValue = 1000

// generate makes the owners' tables; seed drives nothing else but the
// update sequence.
func generate(sh shape, seed int64) ([]*workload.OwnerData, error) {
	return workload.Generate(workload.Config{
		Owners:       sh.Owners,
		DomainSize:   sh.Cells,
		KeysPerOwner: sh.KeysPerOwner,
		CommonKeys:   sh.CommonKeys,
		MaxValue:     maxValue,
		Seed:         prg.SeedFromString("benchmark/" + strconv.FormatInt(seed, 10)),
	})
}

// deployment is one set-up system plus, on gateway workloads, the
// loopback gateway in front of it.
type deployment struct {
	w        workloadDef
	sh       shape
	sys      *prism.System
	dir      string // disk store, "" in memory
	sharegen prism.ShareGenStats
	tr       *tracer

	gwAddr string
	gwStop context.CancelFunc
	gwDone chan error
}

// setUp builds, loads and outsources one deployment and returns how long
// that took: NewLocalSystem + LoadCells + OutsourceAll, nothing else.
func setUp(ctx context.Context, w workloadDef, sh shape, data []*workload.OwnerData, dir string, tr *tracer) (*deployment, time.Duration, error) {
	dom, err := prism.IntDomain(1, sh.Cells)
	if err != nil {
		return nil, 0, err
	}
	cfg := prism.Config{
		Owners:      sh.Owners,
		Domain:      dom,
		AggColumns:  []string{aggCol},
		MaxAggValue: maxValue * uint64(sh.Owners+1),
		Verify:      true,
		EncodeWire:  true, // every owner↔server message is a real gob frame
		Threads:     1,
		MaxInflight: sh.Clients,
		Groups:      w.Groups,
	}
	copy(cfg.Seed[:], "prism-benchmark") // constant: -seed drives data and updates only
	d := &deployment{w: w, sh: sh, tr: tr}
	if w.Disk {
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
		cfg.DiskDir, d.dir = dir, dir
	}
	if w.Sharded {
		cfg.ShardCells = sh.ShardCells
	}
	if w.Hot {
		cfg.HotChunks = sh.HotChunks
	}
	if w.Updates {
		cfg.DeltaMaxEntries = sh.DeltaMax
	}

	start := time.Now()
	sys, err := prism.NewLocalSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	d.sys = sys
	for j, od := range data {
		if err := sys.Owner(j).LoadCells(od.Cells, od.Aggs); err != nil {
			d.tearDown()
			return nil, 0, err
		}
	}
	if d.sharegen, err = sys.OutsourceAll(ctx); err != nil {
		d.tearDown()
		return nil, 0, err
	}
	took := time.Since(start)

	if w.Gateway {
		if err := d.startGateway(ctx); err != nil {
			d.tearDown()
			return nil, 0, err
		}
	}
	return d, took, nil
}

// startGateway serves a gateway.New instance on a loopback port, fed by
// the system's own backends wrapped so the traced pass sees Exec.
func (d *deployment) startGateway(ctx context.Context) error {
	backends := d.sys.GatewayBackends()
	for i, b := range backends {
		backends[i] = &tracedBackend{Backend: b, tr: d.tr}
	}
	gw, err := gateway.New(gateway.Config{Backends: backends, DefaultTimeout: queryTimeout})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	gctx, cancel := context.WithCancel(ctx)
	d.gwAddr, d.gwStop, d.gwDone = ln.Addr().String(), cancel, make(chan error, 1)
	go func() { d.gwDone <- gw.Serve(gctx, ln) }()
	return nil
}

// tearDown stops the gateway, waits for background compaction, stops the
// servers and removes the disk store.
func (d *deployment) tearDown() {
	if d.gwStop != nil {
		d.gwStop()
		<-d.gwDone
	}
	// Compact blocks behind a threshold-triggered pass still in flight,
	// so the store directory is quiet before it is removed; the fold
	// itself needs no error handling on a system about to be dropped.
	_ = d.sys.CompactTables()
	d.sys.Close()
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// tracedBackend records the backend:exec span of a gateway query.
type tracedBackend struct {
	gateway.Backend
	tr *tracer
}

func (b *tracedBackend) Exec(ctx context.Context, q gateway.Query) (*gateway.Result, error) {
	defer b.tr.begin("backend:exec")()
	return b.Backend.Exec(ctx, q)
}

// queryTimeout bounds one operation; nothing in a healthy run comes near it.
const queryTimeout = 60 * time.Second

// client is one closed-loop caller: it sends its next operation only
// after the previous one has answered.
type client struct {
	id  int
	d   *deployment
	orc *oracle
	gw  *gateway.Client // nil on direct workloads
	rng *rand.Rand      // update cell sequence
	// mine holds the tuples this client appended and has not removed yet,
	// oldest first, with the owner that holds each.
	mine    []ownedTuple
	nextOwn int
}

type ownedTuple struct {
	owner int
	t     tuple
}

func newClient(d *deployment, orc *oracle, id int, seed int64) (*client, error) {
	c := &client{id: id, d: d, orc: orc, nextOwn: id,
		rng: rand.New(rand.NewSource(seed*1000 + int64(id)))}
	if d.w.Gateway {
		gw, err := gateway.Dial(d.gwAddr)
		if err != nil {
			return nil, err
		}
		c.gw = gw
	}
	return c, nil
}

func (c *client) close() {
	if c.gw != nil {
		c.gw.Close()
	}
}

// opResult is what one operation left behind.
type opResult struct {
	kind    string
	wall    time.Duration
	err     error // transport/protocol error or oracle mismatch
	ownerNS int64 // QueryStats.OwnerNS, direct path only
	update  prism.UpdateStats
}

// query runs one read under the shared gate and checks it.
func (c *client) query(ctx context.Context, kind string) opResult {
	c.orc.gate.RLock()
	defer c.orc.gate.RUnlock()
	end := c.d.tr.begin("op:" + kind)
	defer end()
	res := opResult{kind: kind}
	start := time.Now()
	var a *answer
	if c.gw != nil {
		a, res.err = c.viaGateway(kind)
	} else {
		a, res.ownerNS, res.err = c.direct(ctx, kind)
	}
	res.wall = time.Since(start)
	if res.err == nil {
		if err := c.orc.check(kind, a); err != nil {
			res.err = fmt.Errorf("%s: wrong answer: %w", kind, err)
		}
	}
	return res
}

func (c *client) direct(ctx context.Context, kind string) (*answer, int64, error) {
	req := prism.Request{}
	switch kind {
	case "psi":
		req.Op = prism.OpPSI
	case "psu":
		req.Op = prism.OpPSU
	case "count":
		req.Op = prism.OpPSICount
	case "sum":
		req.Op, req.Cols = prism.OpPSISum, []string{aggCol}
	case "max":
		req.Op, req.Cols = prism.OpPSIMax, []string{aggCol}
	default:
		return nil, 0, fmt.Errorf("unknown query kind %q", kind)
	}
	end := c.d.tr.begin("backend:exec")
	resp := c.d.sys.QueryAsync(ctx, req).Wait()
	end()
	if resp.Err != nil {
		return nil, 0, resp.Err
	}
	a := &answer{}
	var stats prism.QueryStats
	switch {
	case resp.Set != nil:
		a.Cells, stats = resp.Set.Cells, resp.Set.Stats
	case resp.Count != nil:
		a.Count, stats = resp.Count.Count, resp.Count.Stats
	case resp.Agg != nil:
		a.Cells, a.Sums, stats = resp.Agg.Cells, resp.Agg.Sums[aggCol], resp.Agg.Stats
	case resp.Extreme != nil:
		a.Cells, stats = resp.Extreme.Cells, resp.Extreme.Stats
		a.Extreme = make(map[uint64]uint64, len(resp.Extreme.PerCell))
		for cell, pc := range resp.Extreme.PerCell {
			a.Extreme[cell] = pc.Value
		}
		if g := resp.Extreme.Global; g != nil {
			a.Global = &g.Value
		}
	}
	return a, stats.OwnerNS, nil
}

func (c *client) viaGateway(kind string) (*answer, error) {
	var cols []string
	if kind == "sum" || kind == "max" {
		cols = []string{aggCol}
	}
	end := c.d.tr.begin("gateway:query")
	resp, err := c.gw.Query(kind, cols, "bench", queryTimeout)
	end()
	if err != nil {
		return nil, err
	}
	return &answer{Cells: resp.Cells, Count: resp.Count, Sums: resp.Sums[aggCol],
		Extreme: resp.Extreme, Global: resp.Global}, nil
}

// update applies the client's i-th single-tuple update of a round under
// the exclusive gate. Even updates append one tuple at a rotating owner;
// odd ones add a tuple and remove the oldest one this client appended, so
// the owner engine pays its O(n) removal-match scan.
func (c *client) update(ctx context.Context, i int) opResult {
	c.orc.gate.Lock()
	defer c.orc.gate.Unlock()
	defer c.d.tr.begin("op:update")()

	fresh := tuple{Cell: uint64(c.rng.Int63n(int64(c.d.sh.Cells)))}
	for k := range fresh.Aggs {
		fresh.Aggs[k] = 1 + uint64(c.rng.Int63n(maxValue))
	}
	owner := c.nextOwn % c.d.sh.Owners
	var gone *tuple
	if i%2 == 1 && len(c.mine) > 0 {
		owner, gone = c.mine[0].owner, &c.mine[0].t
	} else {
		c.nextOwn += c.d.sh.Clients
	}

	res := opResult{kind: "update"}
	start := time.Now()
	var rmCells []uint64
	var rmAggs map[string][]uint64
	if gone != nil {
		rmCells, rmAggs = cellArgs(*gone)
	}
	addCells, addAggs := cellArgs(fresh)
	res.update, res.err = c.d.sys.Owner(owner).UpdateCells(ctx, addCells, addAggs, rmCells, rmAggs)
	res.wall = time.Since(start)
	if res.err != nil {
		return res
	}
	c.orc.add(owner, fresh.Cell, fresh.dt())
	if gone != nil {
		c.orc.remove(owner, gone.Cell, gone.dt())
		c.mine = c.mine[1:]
	}
	c.mine = append(c.mine, ownedTuple{owner, fresh})
	return res
}

// cellArgs renders one tuple as UpdateCells arguments; every loaded
// column must be present or the owner engine rejects the update.
func cellArgs(t tuple) ([]uint64, map[string][]uint64) {
	aggs := make(map[string][]uint64, len(workload.Columns))
	for k, col := range workload.Columns {
		aggs[col] = []uint64{t.Aggs[k]}
	}
	return []uint64{t.Cell}, aggs
}
