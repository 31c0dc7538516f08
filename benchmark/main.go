// Command benchmark is the repo benchmark: four closed-loop workloads over
// one fixed deployment size, measured from outside the program by timing
// calls into its public functions and reading what they already return.
// README.md in this directory explains the workloads, the metrics and how
// to compare two sets of runs.
//
//	bash benchmark/run.sh --workload mem-mono --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -compare before.log after.log
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"prism/internal/telemetry"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames()+" (empty: all, one after the other)")
		seed     = flag.Int64("seed", 1, "drives workload.Generate and the update cell sequence, nothing else")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window")
		trace    = flag.String("trace", "", "0: end-to-end metrics only; 1: traced pass and layer probes only; empty: both")
		compare  = flag.Bool("compare", false, "compare two logs of runs: -compare a.log b.log")
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json as the name table defines it")
	)
	flag.Parse()
	if err := dispatch(*workload, *seed, *seconds, *trace, *compare, *printMan); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// outDir holds the disk stores while a run lasts and the trace files
// after it; run.sh starts the program in the benchmark's directory.
const outDir = "out"

func dispatch(workload string, seed int64, seconds int, trace string, compare, printMan bool) error {
	switch {
	case printMan:
		body, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(body)
		return err
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two log files, got %d", flag.NArg())
		}
		return compareLogs(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if trace != "" && trace != "0" && trace != "1" {
		return fmt.Errorf("-trace is 0, 1 or empty, not %q", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	todo := workloads
	if workload != "" {
		w, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %s)", workload, workloadNames())
		}
		todo = []workloadDef{w}
	}
	for _, w := range todo {
		s, err := run(context.Background(), runConfig{
			w: w, sh: fullShape, seed: seed, window: time.Duration(seconds) * time.Second,
			endToEnd: trace != "1", traced: trace != "0", outDir: outDir,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := s.print(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

type runConfig struct {
	w        workloadDef
	sh       shape
	seed     int64
	window   time.Duration
	endToEnd bool // timed set-ups, measured window, counting round
	traced   bool // traced serial rounds and layer probes
	outDir   string
}

// measured is one reported number.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// summary is everything one run found out. It prints as the run's
// second-to-last line; -compare reads it back.
type summary struct {
	Workload    string              `json:"workload"`
	Seed        int64               `json:"seed"`
	Seconds     float64             `json:"seconds"`
	Clients     int                 `json:"clients"`
	Shape       shape               `json:"shape"`
	Env         environment         `json:"env"`
	Attempted   int                 `json:"attempted"`
	Failed      int                 `json:"failed"`
	FailRatio   float64             `json:"fail_ratio"`
	FirstError  string              `json:"first_error,omitempty"`
	Metrics     map[string]measured `json:"metrics"`
	Diagnostics map[string]measured `json:"diagnostics"`
}

type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	env := environment{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// run sets the workload up, loads it and measures it.
func run(ctx context.Context, cfg runConfig) (*summary, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := generate(cfg.sh, cfg.seed)
	if err != nil {
		return nil, err
	}
	orc, err := newOracle(data, cfg.sh.Cells)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	// Set-up, several times when it is being measured: setup_s is the
	// median. Only the last deployment is kept.
	setups := 1
	if cfg.endToEnd {
		setups = cfg.sh.Setups
	}
	var d *deployment
	var setupS []float64
	for i := 0; i < setups; i++ {
		if d != nil {
			d.tearDown()
		}
		runtime.GC() // each timed set-up starts from a collected heap
		var took time.Duration
		if d, took, err = setUp(ctx, cfg.w, cfg.sh, data, filepath.Join(cfg.outDir, fmt.Sprintf("store-%s-%d", cfg.w.Name, i)), tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, took.Seconds())
	}
	defer d.tearDown()

	clients := make([]*client, cfg.sh.Clients)
	for i := range clients {
		if clients[i], err = newClient(d, orc, i, cfg.seed); err != nil {
			return nil, err
		}
		defer clients[i].close()
	}

	s := &summary{
		Workload: cfg.w.Name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Clients: cfg.sh.Clients,
		Shape: cfg.sh, Env: currentEnv(),
		Metrics: make(map[string]measured), Diagnostics: make(map[string]measured),
	}
	total := warmUp(ctx, clients)

	if cfg.endToEnd {
		m := make(map[string]measured)
		cpu0, _, err := resources()
		if err != nil {
			return nil, err
		}
		win, elapsed := window(ctx, clients, cfg.window)
		cpu1, _, _ := resources()
		before := readCounters()
		counted := serialRounds(ctx, clients[0], 1)
		wire := readCounters().wireBytes - before.wireBytes
		_, peakRSS, _ := resources()

		good := win.attempted - win.failed
		m["qps"] = measured{Value: float64(good) / elapsed.Seconds(), Samples: good}
		m["round_p50_ms"] = measured{Value: median(win.rounds), Samples: len(win.rounds)}
		m["wire_bytes_per_round"] = measured{Value: wire, Samples: 1}
		m["peak_rss_bytes"] = measured{Value: peakRSS, Samples: 1}
		m["setup_s"] = measured{Value: median(setupS), Samples: len(setupS)}
		if err := s.fill(endToEnd, m, false); err != nil {
			return nil, err
		}

		if p, v := tail(win.rounds); p > 0 {
			s.Diagnostics[fmt.Sprintf("round_tail_ms.p%.0f", p*100)] = measured{Value: v, Unit: "ms", Samples: len(win.rounds)}
		}
		for kind, lat := range win.ops {
			s.Diagnostics["op_p50_ms."+kind] = measured{Value: median(lat), Unit: "ms", Samples: len(lat)}
		}
		s.Diagnostics["window_s"] = measured{Value: elapsed.Seconds(), Unit: "s"}
		s.Diagnostics["cpu_ms_per_op"] = measured{Value: 1e3 * (cpu1 - cpu0) / float64(good), Unit: "ms", Samples: good}
		s.Diagnostics["cpu_util"] = measured{Value: (cpu1 - cpu0) / elapsed.Seconds(), Unit: "cores"}
		total.merge(win)
		total.merge(counted)
	}

	if cfg.traced {
		m, err := tracedPass(ctx, d, clients[0], orc, total, s.Diagnostics, cfg.outDir)
		if err != nil {
			return nil, err
		}
		if err := s.fill(perLayer, m, true); err != nil {
			return nil, err
		}
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.w.Name+".json"), cfg.w.Name, cfg.seed); err != nil {
			return nil, err
		}
	}

	s.Attempted, s.Failed = total.attempted, total.failed
	s.FailRatio = float64(total.failed) / float64(total.attempted)
	if total.firstErr != nil {
		s.FirstError = total.firstErr.Error()
	}
	return s, nil
}

// tracedPass turns the harness's spans on, runs the workload serially on
// one client and then probes each layer. total collects what it attempted.
func tracedPass(ctx context.Context, d *deployment, c *client, orc *oracle, total *tally, diag map[string]measured, outDir string) (map[string]measured, error) {
	plain := serialRounds(ctx, c, 2) // the untraced reference for trace_overhead_pct
	total.merge(plain)

	before := readCounters()
	d.tr.on.Store(true)
	defer d.tr.on.Store(false)
	traced := serialRounds(ctx, c, d.sh.TracedRounds)
	d.tr.setRound(0)
	total.merge(traced)
	after := readCounters()

	v, dv := make(map[string]float64), make(map[string]float64)
	replies, err := probeServer(ctx, d, v, dv)
	if err != nil {
		return nil, err
	}
	cells := int(d.sh.Cells)
	store, err := probeKernels(d.tr, cells, v)
	if err != nil {
		return nil, err
	}
	if err := probeCodec(ctx, d.tr, replies, store, v); err != nil {
		return nil, err
	}
	if err := probeStore(d.tr, filepath.Join(outDir, "probe-store-"+d.w.Name), cells, v); err != nil {
		return nil, err
	}

	m := make(map[string]measured, len(v))
	for name, value := range v {
		m[name] = measured{Value: value, Samples: probeReps}
	}
	for name, value := range dv {
		diag[name] = measured{Value: value, Unit: "ns", Samples: probeReps}
	}
	roof := v["memcpy_roof_ns_per_cell"]
	for name, width := range map[string]float64{"store_read_ns_per_cell.u64": 8, "store_read_ns_per_cell.u16": 2, "store_write_ns_per_cell": 8} {
		diag["pct_of_roof."+name] = measured{Value: 100 * roof * width / 8 / v[name], Unit: "%"}
	}

	self := d.tr.selfNS()
	m["gateway_self_ms"] = measured{Value: median(self["gateway:query"]) / 1e6, Samples: len(self["gateway:query"])}
	for _, kind := range opKinds {
		m["owner_self_ms."+kind] = measured{Value: median(traced.ownerNS[kind]), Samples: len(traced.ownerNS[kind])}
	}
	m["sharegen_split_s"] = measured{Value: float64(d.sharegen.SplitNS) / 1e9, Samples: 1}
	m["sharegen_upload_s"] = measured{Value: float64(d.sharegen.UploadNS) / 1e9, Samples: 1}
	updates := traced.ops["update"]
	m["update_p50_ms"] = measured{Value: median(updates), Samples: len(updates)}
	m["update_build_ms"] = measured{Value: median(traced.updBuild), Samples: len(updates)}
	m["update_upload_ms"] = measured{Value: median(traced.updUpload), Samples: len(updates)}
	if reads := after.cacheHits - before.cacheHits + after.cacheMisses - before.cacheMisses; reads > 0 {
		m["cache_hit_ratio"] = measured{Value: (after.cacheHits - before.cacheHits) / reads, Samples: int(reads)}
	}
	m["compactions"] = measured{Value: after.compactions - before.compactions, Samples: 1}
	m["compaction_s"] = measured{Value: after.compactionS - before.compactionS, Samples: int(after.compactions - before.compactions)}
	m["delta_backlog_max"] = measured{Value: float64(traced.backlog), Samples: len(updates)}
	m["peak_held_bytes"] = measured{Value: float64(d.sys.PeakServerHeldBytes()), Samples: 1}
	if lat := traced.ops["max"]; len(lat) > 0 && orc.interN > 0 {
		m["extreme_cell_ms"] = measured{Value: median(lat) / float64(orc.interN), Samples: len(lat)}
	}
	if base := median(plain.rounds); base > 0 {
		m["trace_overhead_pct"] = measured{Value: 100 * (median(traced.rounds) - base) / base, Samples: len(traced.rounds)}
	}
	return m, nil
}

// fill copies the table's metrics out of m with their units. A name that
// is in m but not in the table is a bug in the harness; a table metric
// that was not measured is an error unless zeroOK says it reports 0 where
// it does not apply.
func (s *summary) fill(table []metricDef, m map[string]measured, zeroOK bool) error {
	known := make(map[string]bool, len(table))
	for _, def := range table {
		known[def.Name] = true
		got, ok := m[def.Name]
		if !ok && !zeroOK {
			return fmt.Errorf("metric %s was not measured", def.Name)
		}
		got.Unit = def.Unit
		s.Metrics[def.Name] = got
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("measured %s, which the name table does not define", name)
		}
	}
	return nil
}

// print writes the readable lines, the summary line and, last, the one
// object the driver reads.
func (s *summary) print(w io.Writer) error {
	fmt.Fprintf(w, "# %s seed=%d window=%.0fs clients=%d cells=%d owners=%d\n",
		s.Workload, s.Seed, s.Seconds, s.Clients, s.Shape.Cells, s.Shape.Owners)
	moves := make(map[string]string, len(perLayer))
	for _, def := range perLayer {
		moves[def.Name] = fmt.Sprintf("  [%s] → %s", def.Layer, def.Moves)
	}
	for _, section := range []struct {
		title string
		m     map[string]measured
	}{{"metrics", s.Metrics}, {"diagnostics", s.Diagnostics}} {
		names := make([]string, 0, len(section.m))
		for name := range section.m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := section.m[name]
			fmt.Fprintf(w, "%-12s %-40s %16.6g %-6s n=%d%s\n", section.title, name, v.Value, v.Unit, v.Samples, moves[name])
		}
	}
	fmt.Fprintf(w, "%-12s %-40s %16.6g %-6s n=%d\n", "metrics", "fail_ratio", s.FailRatio, "ratio", s.Attempted)
	if s.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", s.FirstError)
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.Failed == 0, s.Attempted, s.Failed, make(map[string]value, len(s.Metrics))}
	for name, v := range s.Metrics {
		result.Metrics[name] = value{v.Value, v.Unit}
	}
	line, err = json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// resources reads the process's CPU time so far (user and system, in
// seconds) and its peak resident set (bytes; Linux reports KiB).
func resources() (cpuS, peakRSS float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) * 1024, nil
}

// counters is the slice of the telemetry registry the harness reads.
type counters struct {
	wireBytes   float64 // Σ prism_rpc_bytes over every message type
	cacheHits   float64
	cacheMisses float64
	compactions float64
	compactionS float64
}

func readCounters() counters {
	snap := telemetry.Default.Snapshot()
	num := func(name string) float64 { v, _ := snap[name].(float64); return v }
	histSum := func(v any) float64 {
		h, _ := v.(map[string]any)
		sum, _ := h["sum"].(float64)
		return sum
	}
	c := counters{
		cacheHits:   num(telemetry.MetricCacheHits),
		cacheMisses: num(telemetry.MetricCacheMisses),
		compactions: num(telemetry.MetricCompactions),
		compactionS: histSum(snap[telemetry.MetricCompactionSeconds]),
	}
	if family, ok := snap[telemetry.MetricRPCBytes].(map[string]any); ok {
		for _, h := range family {
			c.wireBytes += histSum(h)
		}
	}
	return c
}
