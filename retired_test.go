package prism

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The conformance matrix replaced the tests below. Each name stays as a
// view of the matrix cells that now check its behaviours — the
// subsumption table, executable: it passes when every matrix subtest its
// pattern matches passed in this process. Run alone, it runs the matrix
// first. Subtest names are kept verbatim; where they name a domain, an
// owner count or a window size, the pattern picks the matrix shapes of
// that kind (the matrix plants its own data).

// matrixResults is the outcome of every matrix subtest this process ran,
// keyed by its name under TestConformance or TestSoundness.
var (
	matrixResults sync.Map
	matrixRun     sync.Once
	matrixName    = regexp.MustCompile(`Test(Conformance|Soundness)/.*`)
)

// record files t's outcome in matrixResults once t and its subtests end.
func record(t *testing.T) {
	name := matrixName.FindString(t.Name())
	t.Cleanup(func() { matrixResults.Store(name, !t.Failed()) })
}

// retired fails t unless at least one matrix subtest matches pattern and
// every one that does passed.
func retired(t *testing.T, pattern string) {
	t.Helper()
	re := regexp.MustCompile(`^(` + pattern + `)$`)
	check := func() (n int) {
		matrixResults.Range(func(name, passed any) bool {
			if re.MatchString(name.(string)) {
				n++
				if !passed.(bool) {
					t.Errorf("%s failed", name)
				}
			}
			return true
		})
		return n
	}
	if check() == 0 {
		matrixRun.Do(func() {
			t.Run("TestConformance", TestConformance)
			t.Run("TestSoundness", TestSoundness)
		})
		if check() == 0 {
			t.Errorf("no matrix subtest matches %s", pattern)
		}
	}
}

// storageOf is the matrix storage a retired name's disk flag stands for.
var storageOf = map[bool]string{false: "mem", true: "disk-[^/]+"}

// each runs a retired test's subtests: name(i) → the pattern of its cells.
func each(t *testing.T, n int, sub func(i int) (name, pattern string)) {
	for i := range n {
		name, pattern := sub(i)
		t.Run(name, func(t *testing.T) { retired(t, pattern) })
	}
}

func TestUpdateIsOneExchange(t *testing.T) {
	each(t, 12, func(i int) (string, string) {
		disk, shard, groups := i >= 6, []uint64{0, 10, 64}[i/2%3], 1+i%2
		windows := map[uint64]string{0: "one", 10: "many", 64: "one"}[shard]
		return fmt.Sprintf("disk=%v/ShardCells=%d/groups=%d", disk, shard, groups),
			fmt.Sprintf(`TestConformance/%s/%s/g%d(/pending/.*)?`, storageOf[disk], windows, groups)
	})
}

func TestExtremeVectorRoundMatchesOracle(t *testing.T) {
	each(t, 24, func(i int) (string, string) {
		disk, groups, k := i >= 12, 1+i/4%3, []int{0, 1, 2, 64}[i%4]
		return fmt.Sprintf("disk=%v/groups=%d/k=%d/owners=%d", disk, groups, k, 3+(groups+k)%2),
			fmt.Sprintf(`TestConformance/%s/[^/]+/g%d/[^/]+/[^/]+/(max|min|median)`, storageOf[disk], groups)
	})
}

// windowed is the whole-table and second-10-cell-window split of the
// retired per-window adversary tests, over one group and two.
func windowed(t *testing.T, pattern string) {
	each(t, 4, func(i int) (string, string) {
		groups, name := 1+i/2, []string{"whole-table", "second-10-cell-window"}[i%2]
		return fmt.Sprintf("groups=%d/%s", groups, name), fmt.Sprintf(pattern, []string{"one", "many"}[i%2], groups)
	})
}

func TestMaliciousCountEntryDetectedInEveryKernel(t *testing.T) {
	windowed(t, `TestSoundness/[^/]+/%s/g%d/[^/]+/count/count-side/CountReply.Out`)
}

func TestMaliciousPSIProofEntryDetected(t *testing.T) {
	windowed(t, `TestSoundness/[^/]+/%s/g%d/[^/]+/psi/nudge/PSIReply.Vout`)
}

func TestMaliciousExtremeVectorEntryDetected(t *testing.T) {
	each(t, 6, func(i int) (string, string) {
		groups, entry := 1+i/3, []string{"value share", "index share", "fpos entry"}[i%3]
		return fmt.Sprintf("groups=%d/one %s", groups, entry),
			fmt.Sprintf(`TestSoundness/[^/]+/[^/]+/g%d/[^/]+/max/extreme-%s/.*`, groups, strings.Fields(entry)[0])
	})
}
