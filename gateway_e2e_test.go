package prism

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prism/internal/gateway"
)

// TestGatewayCmdE2E is the deployment-level gateway smoke: it builds
// the real binaries, boots a full TCP deployment (init → announcer →
// 3 servers → 2 owners outsourcing CSVs) plus prism-gateway in front,
// then drives 100 concurrent front-protocol clients through the
// gateway and requires every answer to match the direct prism-owner
// path. It also scrapes the gateway's /metrics endpoint for the
// prism_gateway_* series.
func TestGatewayCmdE2E(t *testing.T) {
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
	gatewayBin := build("prism-gateway")

	work := t.TempDir()
	views := filepath.Join(work, "views")
	out, err := exec.Command(initBin,
		"-owners", "2", "-domain", "100", "-maxagg", "100000",
		"-seed", "d4e5f6", "-out", views).CombinedOutput()
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
	gwPort := freePort()
	metricsPort := freePort()

	startDaemon := func(bin string, args ...string) {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", bin, err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	}
	startDaemon(annBin, "-view", filepath.Join(views, "announcer.view"),
		"-listen", fmt.Sprintf("127.0.0.1:%d", annPort))
	for phi := 0; phi < 3; phi++ {
		startDaemon(serverBin,
			"-view", filepath.Join(views, fmt.Sprintf("server-g0-%d.view", phi)),
			"-listen", fmt.Sprintf("127.0.0.1:%d", srvPorts[phi]),
			"-announcer", fmt.Sprintf("127.0.0.1:%d", annPort))
	}
	waitPort := func(p int) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.Dial("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err == nil {
				conn.Close()
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("port %d never came up", p)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	for _, p := range append([]int{annPort}, srvPorts...) {
		waitPort(p)
	}

	// Outsource both owners: keys 10 and 42 common, one extra each.
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

	// The direct-owner path: the parity baseline.
	psiOut := ownerCmd(0, "-op", "psi", "-verify")
	if !strings.Contains(psiOut, "PSI: 2 keys") {
		t.Fatalf("direct psi output: %s", psiOut)
	}
	countOut := ownerCmd(1, "-op", "count")
	if !strings.Contains(countOut, "count: 2") {
		t.Fatalf("direct count output: %s", countOut)
	}

	// The gateway, fronting a pool of 3 owner engines.
	startDaemon(gatewayBin,
		"-listen", fmt.Sprintf("127.0.0.1:%d", gwPort),
		"-view", filepath.Join(views, "owner-g0.view"),
		"-index", "0",
		"-servers", serverList,
		"-owners", "3",
		"-queue", "64",
		"-metrics", fmt.Sprintf("127.0.0.1:%d", metricsPort))
	waitPort(gwPort)

	// 100 concurrent front clients, each one PSI and one count; every
	// answer must match the direct path (keys 10 and 42 → 2 cells).
	const clients = 100
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	gwAddr := fmt.Sprintf("127.0.0.1:%d", gwPort)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := gateway.Dial(gwAddr)
			if err != nil {
				fail(fmt.Errorf("client %d: dial: %w", c, err))
				return
			}
			defer cl.Close()
			psi, err := cl.Query("psi", nil, fmt.Sprintf("t%d", c%7), 30*time.Second)
			if err != nil {
				fail(fmt.Errorf("client %d: psi: %w", c, err))
				return
			}
			if len(psi.Cells) != 2 {
				fail(fmt.Errorf("client %d: psi returned %d cells %v, direct path found 2 keys", c, len(psi.Cells), psi.Cells))
				return
			}
			cnt, err := cl.Query("count", nil, fmt.Sprintf("t%d", c%7), 30*time.Second)
			if err != nil {
				fail(fmt.Errorf("client %d: count: %w", c, err))
				return
			}
			if cnt.Count != 2 {
				fail(fmt.Errorf("client %d: count %d, direct path counted 2", c, cnt.Count))
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	// The telemetry plane must expose the gateway series.
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", metricsPort))
	if err != nil {
		t.Fatalf("scraping gateway metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, series := range []string{
		"prism_gateway_accepted_total",
		"prism_gateway_connections",
		"prism_gateway_pool_healthy",
		"prism_gateway_front_seconds",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("gateway /metrics is missing %s", series)
		}
	}
}
