package viewio

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prism/internal/params"
	"prism/internal/prg"
)

func TestViewRoundTrips(t *testing.T) {
	sys, err := params.Generate(params.Config{
		NumOwners:  3,
		DomainSize: 64,
		MaxAgg:     1000,
		Seed:       prg.SeedFromString("viewio"),
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	ownerPath := filepath.Join(dir, "owner.view")
	if err := Save(ownerPath, sys.ForOwner()); err != nil {
		t.Fatal(err)
	}
	var owner params.OwnerView
	if err := Load(ownerPath, &owner); err != nil {
		t.Fatal(err)
	}
	if owner.M != 3 || owner.B != 64 || owner.Eta != sys.Eta {
		t.Errorf("owner view corrupted: %+v", &owner)
	}
	if !owner.DB1.Equal(sys.Quad.DB1) {
		t.Error("PF_db1 corrupted")
	}
	if owner.Q.Cmp(sys.Q) != 0 {
		t.Error("Q corrupted")
	}
	if owner.Poly.Degree() != sys.Poly.Degree() {
		t.Error("polynomial corrupted")
	}

	for phi := 0; phi < params.NumServers; phi++ {
		v, _ := sys.ForServer(phi)
		p := filepath.Join(dir, "server.view")
		if err := Save(p, v); err != nil {
			t.Fatal(err)
		}
		var sv params.ServerView
		if err := Load(p, &sv); err != nil {
			t.Fatal(err)
		}
		if sv.Index != phi || sv.G != sys.G || sv.EtaPrime != sys.EtaPrime {
			t.Errorf("server view %d corrupted", phi)
		}
		if sv.PSUSeed != sys.PSUSeed {
			t.Error("PSU seed corrupted")
		}
	}

	annPath := filepath.Join(dir, "ann.view")
	if err := Save(annPath, sys.ForAnnouncer()); err != nil {
		t.Fatal(err)
	}
	var ann params.AnnouncerView
	if err := Load(annPath, &ann); err != nil {
		t.Fatal(err)
	}
	if ann.Q.Cmp(sys.Q) != 0 || ann.Delta != sys.Delta {
		t.Error("announcer view corrupted")
	}
}

func TestLoadErrors(t *testing.T) {
	var v params.OwnerView
	if err := Load("/nonexistent/file.view", &v); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "junk.view")
	if err := Save(bad, "just a string"); err != nil {
		t.Fatal(err)
	}
	if err := Load(bad, &v); err == nil {
		t.Error("type-mismatched gob accepted")
	}
}

// TestOwnerGroups covers the one copy of the -view/-servers wiring
// prism-owner and prism-gateway share: logical names, the address book,
// and the two flag mistakes it must name.
func TestOwnerGroups(t *testing.T) {
	sys, err := params.Generate(params.Config{NumOwners: 2, DomainSize: 64, MaxAgg: 1000, Seed: prg.SeedFromString("groups")})
	if err != nil {
		t.Fatal(err)
	}
	v := filepath.Join(t.TempDir(), "owner.view")
	if err := Save(v, sys.ForOwner()); err != nil {
		t.Fatal(err)
	}

	groups, book, err := OwnerGroups(v+", "+v, "a:1,b:2, c:3;d:4,e:5,f:6")
	if err != nil {
		t.Fatal(err)
	}
	wantBook := map[string]string{
		"g0/server/0": "a:1", "g0/server/1": "b:2", "g0/server/2": "c:3",
		"g1/server/0": "d:4", "g1/server/1": "e:5", "g1/server/2": "f:6",
	}
	if !reflect.DeepEqual(book, wantBook) {
		t.Errorf("book = %v, want %v", book, wantBook)
	}
	if len(groups) != 2 || groups[0].View.M != 2 || groups[1].View.B != 64 ||
		!reflect.DeepEqual(groups[0].Servers, []string{"g0/server/0", "g0/server/1", "g0/server/2"}) ||
		!reflect.DeepEqual(groups[1].Servers, []string{"g1/server/0", "g1/server/1", "g1/server/2"}) {
		t.Errorf("groups = %+v", groups)
	}
	if groups, _, err := OwnerGroups(v, "a:1,b:2,c:3"); err != nil || len(groups) != 1 {
		t.Errorf("single -view: %d groups, err %v", len(groups), err)
	}

	for _, c := range []struct{ name, views, servers, want string }{
		{"more triples than views", v, "a:1,b:2,c:3;d:4,e:5,f:6", "2 server groups for 1 owner views; pass one ';'-separated server triple per view"},
		{"more views than triples", v + "," + v, "a:1,b:2,c:3", "1 server groups for 2 owner views; pass one ';'-separated server triple per view"},
		{"short triple", v, "a:1,b:2", "group 0: need 3 server addresses, got 2"},
		{"long second triple", v + "," + v, "a:1,b:2,c:3;d:4,e:5,f:6,g:7", "group 1: need 3 server addresses, got 4"},
		{"missing view file", v + ".nope", "a:1,b:2,c:3", "no such file"},
	} {
		groups, book, err := OwnerGroups(c.views, c.servers)
		if err == nil || !strings.Contains(err.Error(), c.want) || groups != nil || book != nil {
			t.Errorf("%s: groups %v, book %v, err %v; want error containing %q", c.name, groups, book, err, c.want)
		}
	}
}
