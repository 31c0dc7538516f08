// Package report renders the benchmark harness's tables and figure
// series in the same row/column layout the paper presents, as aligned
// text plus optional CSV for plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New returns an empty table.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; values are rendered with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fs", v.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// CSV writes the table as RFC 4180 comma-separated values (cells holding
// commas or quotes are quoted) and reports the first write error.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows) // flushes
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Seconds renders nanoseconds as seconds with millisecond precision,
// matching the paper's second-scale plots.
func Seconds(ns int64) string {
	return fmt.Sprintf("%.3f", float64(ns)/1e9)
}

// Dur renders a nanosecond count at adaptive resolution — seconds,
// milliseconds, microseconds or nanoseconds — so sub-millisecond stats
// (e.g. SSD share fetches) never round down to "0.000". Zero renders as
// "0" exactly.
func Dur(ns int64) string {
	switch {
	case ns == 0:
		return "0"
	case ns >= 1e9:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
