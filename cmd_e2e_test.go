package prism

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIEndToEnd builds the four deployment binaries and drives a full
// TCP deployment through them: init → announcer → 3 servers → 2 owners
// outsourcing CSVs → PSI and PSI-sum queries. This is the cmd-level
// integration test of the README's deployment recipe.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skips subprocess e2e")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = "."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	initBin := build("prism-init")
	serverBin := build("prism-server")
	annBin := build("prism-announcer")
	ownerBin := build("prism-owner")

	work := t.TempDir()
	views := filepath.Join(work, "views")

	// prism-init
	out, err := exec.Command(initBin,
		"-owners", "2", "-domain", "100", "-maxagg", "100000",
		"-seed", "a1b2c3", "-out", views).CombinedOutput()
	if err != nil {
		t.Fatalf("prism-init: %v\n%s", err, out)
	}

	freePort := func() int {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().(*net.TCPAddr).Port
	}
	annPort := freePort()
	srvPorts := []int{freePort(), freePort(), freePort()}

	startDaemon := func(bin string, args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", bin, err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		return cmd
	}
	startDaemon(annBin, "-view", filepath.Join(views, "announcer.view"),
		"-listen", fmt.Sprintf("127.0.0.1:%d", annPort))
	for phi := 0; phi < 3; phi++ {
		startDaemon(serverBin,
			"-view", filepath.Join(views, fmt.Sprintf("server-g0-%d.view", phi)),
			"-listen", fmt.Sprintf("127.0.0.1:%d", srvPorts[phi]),
			"-announcer", fmt.Sprintf("127.0.0.1:%d", annPort))
	}
	// Wait for all listeners.
	for _, p := range append([]int{annPort}, srvPorts...) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			conn, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("port %d never came up", p)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Owner CSVs: keys 10 and 42 are common; owner-specific extras.
	csv0 := filepath.Join(work, "owner0.csv")
	csv1 := filepath.Join(work, "owner1.csv")
	os.WriteFile(csv0, []byte("key,DT\n10,100\n42,7\n77,1\n"), 0o644)
	os.WriteFile(csv1, []byte("key,DT\n10,50\n42,3\n5,9\n"), 0o644)

	serverList := fmt.Sprintf("127.0.0.1:%d,127.0.0.1:%d,127.0.0.1:%d",
		srvPorts[0], srvPorts[1], srvPorts[2])
	ownerCmd := func(index int, args ...string) string {
		base := []string{
			"-view", filepath.Join(views, "owner-g0.view"),
			"-index", fmt.Sprint(index),
			"-servers", serverList,
		}
		out, err := exec.Command(ownerBin, append(base, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("prism-owner %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	ownerCmd(0, "-data", csv0, "-cols", "DT", "-op", "outsource", "-verify")
	ownerCmd(1, "-data", csv1, "-cols", "DT", "-op", "outsource", "-verify")

	psiOut := ownerCmd(0, "-op", "psi", "-verify")
	if !strings.Contains(psiOut, "PSI: 2 keys") {
		t.Fatalf("psi output: %s", psiOut)
	}
	if !strings.Contains(psiOut, "\n10\n") || !strings.Contains(psiOut, "\n42\n") {
		t.Fatalf("psi keys missing: %s", psiOut)
	}

	sumOut := ownerCmd(0, "-op", "sum", "-cols", "DT", "-verify")
	if !strings.Contains(sumOut, "key 10: sum(DT)=150") || !strings.Contains(sumOut, "key 42: sum(DT)=10") {
		t.Fatalf("sum output: %s", sumOut)
	}

	countOut := ownerCmd(1, "-op", "count")
	if !strings.Contains(countOut, "count: 2") {
		t.Fatalf("count output: %s", countOut)
	}

	psuOut := ownerCmd(1, "-op", "psu")
	if !strings.Contains(psuOut, "PSU: 4 keys") {
		t.Fatalf("psu output: %s", psuOut)
	}

	// Incremental update: owner 0 drops key 77 and gains key 5 (which
	// owner 1 already holds), shipped as one delta request per server by a fresh
	// process that adopts the table from the original CSV.
	add0 := filepath.Join(work, "owner0-add.csv")
	rm0 := filepath.Join(work, "owner0-rm.csv")
	os.WriteFile(add0, []byte("key,DT\n5,20\n"), 0o644)
	os.WriteFile(rm0, []byte("key,DT\n77,1\n"), 0o644)
	upOut := ownerCmd(0, "-data", csv0, "-cols", "DT", "-verify",
		"-add", add0, "-remove", rm0, "-op", "update")
	if !strings.Contains(upOut, "updated 2 cells in one exchange per server") {
		t.Fatalf("update output: %s", upOut)
	}
	psiOut = ownerCmd(0, "-op", "psi", "-verify")
	if !strings.Contains(psiOut, "PSI: 3 keys") || !strings.Contains(psiOut, "\n5\n") {
		t.Fatalf("psi after update: %s", psiOut)
	}
	sumOut = ownerCmd(0, "-op", "sum", "-cols", "DT", "-verify")
	if !strings.Contains(sumOut, "key 5: sum(DT)=29") || !strings.Contains(sumOut, "key 10: sum(DT)=150") {
		t.Fatalf("sum after update: %s", sumOut)
	}
}
