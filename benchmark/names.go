package main

import (
	"encoding/json"
	"strings"
)

// This file is the benchmark's one name table: the workloads, the
// end-to-end metrics with their bounds and the per-layer metrics. The
// printer emits exactly these names, `-manifest` renders them as
// BENCHMARK.json, and the smoke test checks the committed BENCHMARK.json
// against that rendering, so a name cannot drift between the three.

// workloadDef is one traffic mix over one deployment shape.
type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	Disk    bool // disk-backed servers (Config.DiskDir)
	Sharded bool // ShardCells windows instead of monolithic frames
	Hot     bool // hot-chunk cache with a budget the columns fit in
	Groups  int  // server groups (0 → 1)
	Gateway bool // clients are gateway front connections over loopback
	Updates bool // each round starts with shape.Updates single-tuple updates
	// Ops is one round's query list, in the gateway's kind vocabulary
	// (psi, psu, count, sum, max); sum and max run over column DT.
	Ops []string
}

var workloads = []workloadDef{
	{
		Name: "mem-mono",
		Why:  "in-memory servers, monolithic frames: compute loops, gob codec and owner recombination do all the work; store and cache do none",
		Ops:  []string{"psi", "psu", "count", "sum"},
	},
	{
		Name: "disk-nocache",
		Why:  "disk-backed, 64Ki-cell windows, cache off: every window re-reads, CRC-checks and decodes its chunks, so store read and fetch dominate",
		Disk: true, Sharded: true,
		Ops: []string{"psi", "psu", "count", "sum"},
	},
	{
		Name: "update-read",
		Why:  "16 single-tuple updates then three reads per round on a cached disk store: delta log, overlay patch, compaction and invalidation run only here",
		Disk: true, Sharded: true, Hot: true, Updates: true,
		Ops: []string{"psi", "count", "sum"},
	},
	{
		Name: "gw-2group",
		Why:  "loopback gateway clients over two server groups with a warm cache: front JSON, admission, pool, group fan-out and announcer rounds; store idle",
		Disk: true, Sharded: true, Hot: true, Groups: 2, Gateway: true,
		Ops: []string{"psi", "psu", "count", "sum", "max"},
	},
}

// metricDef names one reported number.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Layer and Moves are printed beside a per-layer metric: the module
	// it measures and the end-to-end metric (and workload) a change to
	// that module should move.
	Layer string
	Moves string
}

// endToEnd are the numbers a user of the deployment sees. Every workload
// reports every one of them and none is ever zero.
var endToEnd = []metricDef{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "wire_bytes_per_round", Unit: "bytes", Better: "lower", Bound: 0.01},
	{Name: "peak_rss_bytes", Unit: "bytes", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// readTypes are the server request types the engine probes drive;
// codecMsgs are the frames the codec probe replays.
var (
	readTypes = []string{"psi", "count", "psu", "agg"}
	codecMsgs = []string{"psi_reply", "count_reply", "agg_reply", "store_request"}
	opKinds   = []string{"psi", "psu", "count", "sum", "max"}
)

// perLayer are the traced pass's numbers. A metric that does not apply to
// a workload (gateway_self_ms off the gateway, update_* off update-read)
// reports 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(layer, name, unit, better, moves string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves})
	}
	each := func(layer, name string, labels []string, unit, better, moves string) {
		for _, l := range labels {
			add(layer, name+"."+l, unit, better, moves)
		}
	}
	add("gateway", "gateway_self_ms", "ms", "lower", "round_p50_ms and qps on gw-2group only")
	each("ownerengine", "owner_self_ms", opKinds, "ms", "lower", "round_p50_ms on mem-mono (largest share in psi and sum)")
	add("ownerengine", "sharegen_split_s", "s", "lower", "setup_s on every workload")
	add("ownerengine", "sharegen_upload_s", "s", "lower", "setup_s on every workload")
	add("ownerengine", "update_p50_ms", "ms", "lower", "round_p50_ms on update-read only")
	add("ownerengine", "update_build_ms", "ms", "lower", "update_p50_ms")
	add("ownerengine", "update_upload_ms", "ms", "lower", "update_p50_ms")
	each("transport", "codec_ns_per_cell", codecMsgs, "ns", "lower", "qps on mem-mono; setup_s via store_request; small on disk-nocache")
	each("transport", "frame_bytes_per_cell", codecMsgs, "bytes", "lower", "wire_bytes_per_round on every workload")
	each("serverengine", "server_compute_ns_per_cell", readTypes, "ns", "lower", "qps on mem-mono")
	each("serverengine", "server_fetch_ns_per_cell", readTypes, "ns", "lower", "qps on disk-nocache; negligible on mem-mono")
	each("serverengine", "server_patch_ns_per_cell", readTypes, "ns", "lower", "round_p50_ms on update-read only")
	add("serverengine", "cache_hit_ratio", "ratio", "higher", "0 on mem-mono and disk-nocache, 1 on gw-2group, below 1 on update-read")
	add("serverengine", "compactions", "count", "lower", "round_p50_ms on update-read only")
	add("serverengine", "compaction_s", "s", "lower", "round_p50_ms on update-read only")
	add("serverengine", "delta_backlog_max", "count", "lower", "server_patch_ns_per_cell on update-read")
	add("serverengine", "peak_held_bytes", "bytes", "lower", "peak_rss_bytes; 0 on disk-nocache")
	each("sharestore", "store_read_ns_per_cell", []string{"u16", "u64"}, "ns", "lower", "qps on disk-nocache only")
	add("sharestore", "store_write_ns_per_cell", "ns", "lower", "setup_s on the three disk workloads")
	add("sharestore", "store_patch_us", "us", "lower", "compaction_s, then update-read")
	add("sharestore", "delta_append_us", "us", "lower", "update_p50_ms")
	add("sharestore", "memcpy_roof_ns_per_cell", "ns", "lower", "the hardware roof the store and codec rows are read against")
	add("modmath", "mulmod_ns", "ns", "lower", "owner_self_ms, then mem-mono")
	add("share", "additive_split_ns_per_cell", "ns", "lower", "sharegen_split_s, then setup_s")
	add("perm", "perm_apply_ns_per_cell", "ns", "lower", "owner_self_ms and sharegen_split_s")
	add("announcer", "extreme_cell_ms", "ms", "lower", "round_p50_ms on gw-2group only")
	add("harness", "trace_overhead_pct", "%", "lower", "nothing: the cost of the harness's own spans")
	return out
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 22

// manifest renders the name table as the contents of BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
