package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"prism/internal/params"
)

// tally collects what a set of rounds produced. Only operations that
// answered correctly leave a latency sample.
type tally struct {
	attempted int
	failed    int
	firstErr  error
	rounds    []float64            // ms, rounds in which every operation was correct
	ops       map[string][]float64 // ms per operation kind, updates included
	ownerNS   map[string][]float64 // QueryStats.OwnerNS per query kind, direct path
	updBuild  []float64            // ms, UpdateStats.BuildNS+SplitNS
	updUpload []float64            // ms, UpdateStats.UploadNS
	backlog   int                  // largest delta backlog seen after an update
}

func newTally() *tally {
	return &tally{ops: make(map[string][]float64), ownerNS: make(map[string][]float64)}
}

func (t *tally) record(r opResult) bool {
	t.attempted++
	if r.err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = r.err
		}
		return false
	}
	t.ops[r.kind] = append(t.ops[r.kind], ms(r.wall))
	if r.kind == "update" {
		t.updBuild = append(t.updBuild, float64(r.update.BuildNS+r.update.SplitNS)/1e6)
		t.updUpload = append(t.updUpload, float64(r.update.UploadNS)/1e6)
	} else if r.ownerNS > 0 {
		t.ownerNS[r.kind] = append(t.ownerNS[r.kind], float64(r.ownerNS)/1e6)
	}
	return true
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.rounds = append(t.rounds, o.rounds...)
	for k, v := range o.ops {
		t.ops[k] = append(t.ops[k], v...)
	}
	for k, v := range o.ownerNS {
		t.ownerNS[k] = append(t.ownerNS[k], v...)
	}
	t.updBuild = append(t.updBuild, o.updBuild...)
	t.updUpload = append(t.updUpload, o.updUpload...)
	t.backlog = max(t.backlog, o.backlog)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// round runs the workload's operation list once: the updates, then the
// queries. It stops early, leaving no round sample, once keepGoing says
// the window is over.
func (c *client) round(ctx context.Context, t *tally, keepGoing func() bool) {
	defer c.d.tr.begin("round")()
	start := time.Now()
	clean := true
	if c.d.w.Updates {
		for i := 0; i < c.d.sh.Updates; i++ {
			if !keepGoing() {
				return
			}
			clean = t.record(c.update(ctx, i)) && clean
			t.backlog = max(t.backlog, c.d.deltaBacklog())
		}
	}
	for _, kind := range c.d.w.Ops {
		if !keepGoing() {
			return
		}
		clean = t.record(c.query(ctx, kind)) && clean
	}
	if clean {
		t.rounds = append(t.rounds, ms(time.Since(start)))
	}
}

// deltaBacklog is the largest merged-but-uncompacted delta count on any server.
func (d *deployment) deltaBacklog() int {
	var most int
	for g := 0; g < d.sys.NumGroups(); g++ {
		for phi := 0; phi < params.NumServers; phi++ {
			most = max(most, d.sys.GroupServerEngine(g, phi).DeltaBacklog(tableName))
		}
	}
	return most
}

func always() bool { return true }

// serialRounds runs n rounds on one client, one after the other.
func serialRounds(ctx context.Context, c *client, n int) *tally {
	t := newTally()
	for r := 0; r < n; r++ {
		c.d.tr.setRound(r + 1)
		c.round(ctx, t, always)
	}
	return t
}

// warmUp runs one untimed round on every client at once so caches fill
// and lazy set-up finishes; its answers are still checked.
func warmUp(ctx context.Context, clients []*client) *tally {
	return runClients(clients, func(c *client, t *tally) { c.round(ctx, t, always) })
}

// window is the measured closed loop: every client runs rounds back to
// back for dur. An operation is started only while the window is open;
// the elapsed time runs until the last started operation has answered, so
// operations of a cut-short round count toward qps at their true cost.
func window(ctx context.Context, clients []*client, dur time.Duration) (*tally, time.Duration) {
	start := time.Now()
	open := func() bool { return time.Since(start) < dur }
	t := runClients(clients, func(c *client, t *tally) {
		for open() {
			c.round(ctx, t, open)
		}
	})
	return t, time.Since(start)
}

func runClients(clients []*client, body func(*client, *tally)) *tally {
	parts := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		parts[i] = newTally()
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			body(c, t)
		}(c, parts[i])
	}
	wg.Wait()
	total := newTally()
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// median returns the middle value (0 for no samples).
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// tail reports the highest of p90/p95/p99 that still has at least ten
// samples beyond it, and which one that was (0 when even p90 has not).
func tail(v []float64) (p, value float64) {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(v))*(1-q) >= 10 {
			return q, percentile(v, q)
		}
	}
	return 0, 0
}
