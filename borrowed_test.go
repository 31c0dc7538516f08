package prism

import (
	"testing"

	"prism/internal/gateway"
	"prism/internal/ownerengine"
	"prism/internal/transport"
)

// TestConformanceBorrowedFrames runs the conformance shapes of one and
// two groups, in memory and on disk, whole-table and windowed, verified,
// with every released frame poisoned: a share vector read after its
// frame went back to the pool would read 0xFF… cells and fail the oracle
// or the verification. After every cell no frame — borrowed, or laid and
// not yet sent — may still be held. The cells run one at a time, since
// the count is the process's.
func TestConformanceBorrowedFrames(t *testing.T) {
	defer transport.PoisonReleasedFrames()()
	for _, sh := range shapes {
		if sh.groups > 2 {
			continue
		}
		t.Run(sh.name(), func(t *testing.T) {
			m := newMatrix(t, sh)
			addr, _ := startGateway(t, gateway.Config{Backends: m.sys.GatewayBackends()})
			gw, err := gateway.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			m.gw = gw
			for _, phase := range phases {
				m.enter(t, phase)
				for _, path := range []string{"direct", "gateway"} {
					for _, name := range ownerengine.KindNames() {
						kind, _ := ownerengine.KindByName(name)
						t.Run(phase+"/"+path+"/"+name, func(t *testing.T) {
							m.complete(t, path, kind)
							if n := transport.HeldFrames(); n != 0 {
								t.Errorf("%d frames held after the query", n)
							}
						})
					}
				}
			}
		})
	}
}
