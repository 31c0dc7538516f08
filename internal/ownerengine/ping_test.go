package ownerengine

import (
	"context"
	"strings"
	"testing"
)

// TestPing exercises the cheap liveness probe the gateway's
// health-checker and `prism-owner -op list` rely on: a healthy group
// answers nil, and a dead server fails the probe with its group and its
// logical address in the error — a one-group owner's too, since one
// group is the N = 1 case of many.
func TestPing(t *testing.T) {
	r := newRig(t, 2, 64)
	ctx := context.Background()
	o := r.owners[0]
	if err := o.Ping(ctx); err != nil {
		t.Fatalf("Ping over a healthy group: %v", err)
	}
	if err := o.PingGroup(ctx, 0); err != nil {
		t.Fatalf("PingGroup(0) over a healthy group: %v", err)
	}

	// Ping moves no inventory, so it must work before any outsourcing
	// too — that is what lets prism-owner probe a fresh deployment.
	if err := r.owners[1].Ping(ctx); err != nil {
		t.Fatalf("Ping from a second owner: %v", err)
	}

	r.network.Deregister("server/1")
	err := o.Ping(ctx)
	if err == nil {
		t.Fatal("Ping with server/1 dead returned nil")
	}
	if !strings.Contains(err.Error(), "server/1") {
		t.Errorf("Ping error %q does not name the dead server", err)
	}
	if strings.Contains(err.Error(), "server/0") || strings.Contains(err.Error(), "server/2") {
		t.Errorf("Ping error %q blames a live server", err)
	}
	if !strings.HasPrefix(err.Error(), "group 0: ") {
		t.Errorf("Ping error %q does not name its group", err)
	}
}
