package protocol

import "testing"

func TestStatsAdd(t *testing.T) {
	a := Stats{FetchNS: 10, ComputeNS: 20, Cells: 5}
	a.Add(Stats{FetchNS: 1, ComputeNS: 2, Cells: 3})
	if a.FetchNS != 11 || a.ComputeNS != 22 || a.Cells != 8 {
		t.Errorf("Stats.Add = %+v", a)
	}
}

func TestExtremeKindString(t *testing.T) {
	cases := map[ExtremeKind]string{
		KindMax:         "max",
		KindMin:         "min",
		KindMedian:      "median",
		ExtremeKind(99): "unknown",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q want %q", k, k.String(), want)
		}
	}
}
