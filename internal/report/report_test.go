package report

import (
	"encoding/csv"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRenderAlignment(t *testing.T) {
	tb := New("Exp", "name", "time")
	tb.Add("psi", 4.2)
	tb.Add("longer-name", time.Duration(1500)*time.Millisecond)
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "== Exp ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "psi") || !strings.Contains(out, "longer-name") {
		t.Error("missing rows")
	}
	if !strings.Contains(out, "4.200") {
		t.Error("float not rendered with 3 decimals")
	}
	if !strings.Contains(out, "1.500s") {
		t.Error("duration not rendered as seconds")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + sep + 2 rows
	if len(lines) != 5 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestCSV(t *testing.T) {
	tb := New("", "a", "b")
	tb.Add(1, 2)
	tb.Add(3, 4)
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if sb.String() != want {
		t.Errorf("csv = %q want %q", sb.String(), want)
	}
}

// TestCSVRoundTripsQuotedCells: cells holding commas, quotes or newlines
// (Table 13's "PSI, PSU, agg") must come back from a CSV reader as the
// same fields under the same column count, and a failing writer must
// surface as an error.
func TestCSVRoundTripsQuotedCells(t *testing.T) {
	tb := New("", "system", "operations", "note")
	tb.Add("Jana [5]", "PSI, PSU, agg", `says "yes"`)
	tb.Add("[39] & [45]", "PSI", "two\nlines")
	var sb strings.Builder
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll() // enforces equal field counts
	if err != nil {
		t.Fatalf("csv output does not parse: %v\n%s", err, sb.String())
	}
	if want := append([][]string{tb.Headers}, tb.Rows...); !reflect.DeepEqual(recs, want) {
		t.Errorf("round trip = %q, want %q", recs, want)
	}
	if err := tb.CSV(failingWriter{}); err == nil {
		t.Error("CSV on a failing writer returned nil")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSeconds(t *testing.T) {
	if Seconds(1_500_000_000) != "1.500" {
		t.Errorf("Seconds = %s", Seconds(1_500_000_000))
	}
	if Seconds(0) != "0.000" {
		t.Errorf("Seconds(0) = %s", Seconds(0))
	}
}

func TestDurAdaptiveResolution(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0"},
		{742, "742ns"},
		{1_500, "1.500µs"},
		{835_000, "835.000µs"},
		{2_500_000, "2.500ms"},
		{1_500_000_000, "1.500s"},
	}
	for _, c := range cases {
		if got := Dur(c.ns); got != c.want {
			t.Errorf("Dur(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}
