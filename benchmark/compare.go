package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// compareLogs reads two logs of runs — captured standard output, any
// number of runs each — and judges every (end-to-end metric, workload)
// pair by the bounds in the name table, b against a.
func compareLogs(w io.Writer, pathA, pathB string) error {
	a, err := readLog(pathA)
	if err != nil {
		return err
	}
	b, err := readLog(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-22s %14s %8s %14s %8s %8s  %s\n",
		"workload", "metric", "a median", "a iqr%", "b median", "b iqr%", "b vs a%", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			va, vb := a[wl.Name][def.Name], b[wl.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := judge(def, va, vb)
			fmt.Fprintf(w, "%-14s %-22s %14.6g %8.2f %14.6g %8.2f %+8.2f  %s (n=%d/%d, bound %.0f%%)\n",
				wl.Name, def.Name, v.medianA, 100*v.spreadA, v.medianB, 100*v.spreadB, 100*v.change,
				v.verdict, len(va), len(vb), 100*def.Bound)
		}
	}
	return nil
}

// readLog collects metric values per workload from every summary line in
// the file; other lines are skipped.
func readLog(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var s summary
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			return nil, fmt.Errorf("%s: bad summary line: %w", path, err)
		}
		if out[s.Workload] == nil {
			out[s.Workload] = make(map[string][]float64)
		}
		for name, v := range s.Metrics {
			out[s.Workload][name] = append(out[s.Workload][name], v.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run summaries found", path)
	}
	return out, nil
}

type judgement struct {
	medianA, medianB float64
	spreadA, spreadB float64 // interquartile range as a share of the median
	change           float64 // (b-a)/a, signed as measured
	verdict          string
}

// judge applies one metric's bound: unresolved when either side's own
// spread is wider than the bound, otherwise better, worse or within.
func judge(def metricDef, a, b []float64) judgement {
	j := judgement{medianA: median(a), medianB: median(b), spreadA: spread(a), spreadB: spread(b)}
	if j.medianA != 0 {
		j.change = (j.medianB - j.medianA) / j.medianA
	}
	gain := j.change
	if def.Better == "lower" {
		gain = -gain
	}
	switch {
	case j.spreadA > def.Bound || j.spreadB > def.Bound:
		j.verdict = "unresolved"
	case gain < -def.Bound:
		j.verdict = "worse"
	case gain > def.Bound:
		j.verdict = "better"
	default:
		j.verdict = "within"
	}
	return j
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives — the driver's measure. Fewer than two values have no spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		pos := i * (len(s) + 1)
		j := min(max(pos/4, 1), len(s)-1)
		rem := pos - 4*j
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}
