package prism

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"prism/internal/ownerengine"
)

// TestReoutsourceUnderNewLayoutRefused: a re-outsource whose layout
// differs from the registered table's — here owner 0 reloads new v
// values and outsources without its v column — is refused by every
// server before any column is written, the error names the field, and
// the registration already served keeps answering, in memory and on
// disk, with and without verification.
func TestReoutsourceUnderNewLayoutRefused(t *testing.T) {
	ctx := context.Background()
	dom, err := IntDomain(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(v uint64) []Row {
		return []Row{
			{IntKey: 5, Aggs: map[string]uint64{"v": v, "w": 1}},
			{IntKey: 7, Aggs: map[string]uint64{"v": v, "w": 2}},
		}
	}
	for _, disk := range []bool{false, true} {
		for _, verify := range []bool{false, true} {
			t.Run(fmt.Sprintf("disk=%v/verify=%v", disk, verify), func(t *testing.T) {
				cfg := Config{Owners: 3, Domain: dom, AggColumns: []string{"v", "w"},
					MaxAggValue: 10_000, Verify: verify, Seed: [32]byte{4, 6}}
				if disk {
					cfg.DiskDir = t.TempDir()
				}
				s, err := NewLocalSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for i := range cfg.Owners {
					if err := s.Owner(i).Load(rows(10)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.OutsourceAll(ctx); err != nil {
					t.Fatal(err)
				}
				if err := s.Owner(0).Load(rows(1000)); err != nil {
					t.Fatal(err)
				}
				_, err = s.Owner(0).Engine().Outsource(ctx, ownerengine.OutsourceSpec{
					Table: tableName, AggCols: []string{"w"}, Verify: verify, WithCount: true})
				if err == nil || !strings.Contains(err.Error(), "AggCols") {
					t.Fatalf("re-outsource under another layout: err = %v, want a refusal naming AggCols", err)
				}
				for phi := range 3 {
					if n := s.ServerEngine(phi).PendingUploads(); n != 0 {
						t.Fatalf("server %d holds %d pending uploads after the refusal", phi, n)
					}
				}
				res, err := s.PSISum(ctx, "v", "w")
				if err != nil {
					t.Fatalf("sum after the refused re-outsource: %v", err)
				}
				for cell, w := range map[uint64]uint64{4: 3, 6: 6} {
					if got, _ := res.Sum("v", cell); got != 30 {
						t.Errorf("sum(v) at cell %d = %d, want the registered 30", cell, got)
					}
					if got, _ := res.Sum("w", cell); got != w {
						t.Errorf("sum(w) at cell %d = %d, want %d", cell, got, w)
					}
				}
			})
		}
	}
}
