// Command prism-owner is a DB owner CLI: it loads a private CSV table,
// outsources secret shares to the TCP servers, and issues queries.
//
// CSV format: a header line "key,COL1,COL2,..." followed by integer
// rows; key must lie in [1, b] where b is the domain size baked into the
// view file. Example:
//
//	key,PK,DT
//	17,100,3
//	42,250,7
//
// Usage:
//
//	prism-owner -view views/owner-g0.view -index 0 \
//	    -servers localhost:7001,localhost:7002,localhost:7003 \
//	    -data owner0.csv -cols PK,DT -op outsource
//	prism-owner ... -op psi
//	prism-owner ... -op sum -cols DT
//	prism-owner ... -data owner0.csv -cols PK,DT \
//	    -add new.csv -remove gone.csv -op update
//
// Ops: outsource, update, list, and every query kind of the one kind
// table (internal/ownerengine/exec.go): psi, psu, count, psucount, sum,
// avg, psusum, psuavg. With -verify a query runs every verification
// check the paper defines for its kind before printing anything.
//
// "-op update" ships a tuple-set change as one delta request per server
// instead of re-outsourcing the whole table: -data names the CSV as
// currently outsourced, -add/-remove name CSVs (same format) of tuples
// to insert and delete, and only the changed cells travel. Removed tuples must
// match rows of -data exactly (key and every column). The servers merge
// the deltas over the stored base and fold them into the base chunks at
// the next compaction (see prism-server -deltamax/-compact).
//
// The exemplary aggregations (max, min, median) are kinds too, but need
// every owner's engine in one process and answer "unsupported query"
// from this one-owner CLI; see examples/federated for a deployment that
// drives them over TCP.
//
// "-op list" probes which tables each server currently serves (name,
// owners, registration epoch) without touching any data — the cheap
// "is my table still served?" check after a server restart (servers
// started with -store reload their tables from disk manifests, so the
// probe replaces a full re-outsource). In a multi-group deployment it
// fans out to every group and cross-checks the answers: a table served
// by some servers of a group but not others, with disagreeing owner
// sets, or by some groups but not all, is flagged SPLIT-BRAIN — queries
// against it would silently cover only part of the domain, so heal it
// (restart the lagging server over its store, or re-outsource) before
// querying.
//
// Multi-group deployments (prism-init -groups) pass one owner view per
// group in -view, ','-separated, and one server triple per group in
// -servers, ';'-separated, both in group order:
//
//	prism-owner -view views/owner-g0.view,views/owner-g1.view -index 0 \
//	    -servers "h1:7001,h2:7002,h3:7003;h4:7001,h5:7002,h6:7003" \
//	    -data owner0.csv -cols PK,DT -op outsource
//
// The owner routes each cell window to the group owning its domain
// range, runs the groups concurrently, and merges results locally.
//
// For large domains pass -shard N to move uploads and query vectors as
// N-cell windows instead of one O(b) frame per exchange (see the README
// "Domain sharding" section for tuning).
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"prism/internal/ownerengine"
	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/telemetry"
	"prism/internal/transport"
	"prism/internal/viewio"
)

func main() {
	var (
		viewPaths = flag.String("view", "", "comma-separated owner view files from prism-init, one per group in group order (required)")
		index     = flag.Int("index", 0, "this owner's index in [0, m)")
		servers   = flag.String("servers", "", "comma-separated host:port of each group's 3 servers; ';' separates groups (required)")
		dataPath  = flag.String("data", "", "CSV data file (required for -op outsource/update)")
		cols      = flag.String("cols", "", "comma-separated aggregation columns")
		table     = flag.String("table", "main", "logical table name")
		op        = flag.String("op", "", "outsource|update|list|"+strings.Join(ownerengine.KindNames(), "|")+" (required)")
		addPath   = flag.String("add", "", "update: CSV of tuples to insert")
		rmPath    = flag.String("remove", "", "update: CSV of tuples to delete (must match -data rows)")
		verify    = flag.Bool("verify", false, "outsource verification columns / verify query results")
		shard     = flag.Uint64("shard", 0, "window size in cells for uploads and query vectors (0 = one window of the whole table)")
		metrics   = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9102); empty disables the endpoint")
	)
	flag.Parse()
	if *viewPaths == "" || *servers == "" || *op == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfgs, book, err := viewio.OwnerGroups(*viewPaths, *servers)
	if err != nil {
		fatal(err)
	}
	client := transport.NewTCPClient(book)
	defer client.Close()
	if *metrics != "" {
		telemetry.ServeAdmin(*metrics, telemetry.AdminMux(), func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "prism-owner: "+format+"\n", args...)
		})
	}

	owner, err := ownerengine.New(*index, cfgs, client, *shard, [32]byte{})
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	b := owner.DomainB()
	m := owner.View().M
	var colList []string
	if *cols != "" {
		colList = strings.Split(*cols, ",")
	}

	switch *op {
	case "outsource":
		if *dataPath == "" {
			fatal(fmt.Errorf("-data is required for outsourcing"))
		}
		data, err := loadCSV(*dataPath, b)
		if err != nil {
			fatal(err)
		}
		if err := owner.Load(data); err != nil {
			fatal(err)
		}
		st, err := owner.Outsource(ctx, ownerengine.OutsourceSpec{
			Table: *table, AggCols: colList, Verify: *verify, WithCount: len(colList) > 0,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("outsourced %d tuples over %d cells in %.3fs (build %.3fs, split %.3fs, upload %.3fs)\n",
			len(data.Cells), st.Cells,
			float64(st.BuildNS+st.SplitNS+st.UploadNS)/1e9,
			float64(st.BuildNS)/1e9, float64(st.SplitNS)/1e9, float64(st.UploadNS)/1e9)

	case "update":
		if *dataPath == "" {
			fatal(fmt.Errorf("-data is required for -op update (the table as currently outsourced)"))
		}
		if *addPath == "" && *rmPath == "" {
			fatal(fmt.Errorf("-op update needs -add and/or -remove"))
		}
		data, err := loadCSV(*dataPath, b)
		if err != nil {
			fatal(err)
		}
		if err := owner.Load(data); err != nil {
			fatal(err)
		}
		// Rebuild the retained table state (χ, multiplicities, sums)
		// from -data without re-uploading anything; the servers still
		// hold the matching base.
		spec := ownerengine.OutsourceSpec{
			Table: *table, AggCols: colList, Verify: *verify, WithCount: len(colList) > 0,
		}
		if err := owner.AdoptTable(spec); err != nil {
			fatal(err)
		}
		var add, remove *ownerengine.Data
		if *addPath != "" {
			if add, err = loadCSV(*addPath, b); err != nil {
				fatal(err)
			}
		}
		if *rmPath != "" {
			if remove, err = loadCSV(*rmPath, b); err != nil {
				fatal(err)
			}
		}
		st, err := owner.Update(ctx, *table, add, remove)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("updated %d cells in one exchange per server, %.3fs (build %.3fs, split %.3fs, upload %.3fs)\n",
			st.Cells,
			float64(st.BuildNS+st.SplitNS+st.UploadNS)/1e9,
			float64(st.BuildNS)/1e9, float64(st.SplitNS)/1e9, float64(st.UploadNS)/1e9)

	case "list":
		listTables(ctx, owner, *table, m)

	default:
		kind, ok := ownerengine.KindByName(*op)
		if !ok {
			fatal(fmt.Errorf("unknown -op %q", *op))
		}
		res, err := owner.Exec(ctx, ownerengine.Query{Kind: kind, Table: *table, Cols: colList, Verify: *verify}, nil)
		if err != nil {
			fatal(err)
		}
		printResult(kind, colList, res)
	}
}

// printResult prints a query answer; cells are 0-based, keys 1-based.
func printResult(kind ownerengine.OpKind, cols []string, res *ownerengine.Result) {
	switch kind.Family() {
	case ownerengine.FamilySet:
		fmt.Printf("%s: %d keys (server %.3fs, owner %.3fs)\n", strings.ToUpper(kind.Name()), len(res.Cells),
			float64(res.Stats.Server.ComputeNS)/1e9, float64(res.Stats.OwnerNS)/1e9)
		for _, c := range res.Cells {
			fmt.Println(c + 1)
		}
	case ownerengine.FamilyCount:
		fmt.Printf("count: %d\n", res.Count)
	case ownerengine.FamilyAgg:
		for _, cell := range res.Cells {
			line := fmt.Sprintf("key %d:", cell+1)
			for _, col := range cols {
				if res.Counts != nil {
					line += fmt.Sprintf(" avg(%s)=%.3f", col, float64(res.Sums[col][cell])/float64(res.Counts[cell]))
				} else {
					line += fmt.Sprintf(" sum(%s)=%d", col, res.Sums[col][cell])
				}
			}
			fmt.Println(line)
		}
	}
}

// listTables fans the inventory probe out to every group's servers,
// prints each answer, and cross-checks them: a table served by only
// part of a group's server triple, with disagreeing owner sets inside a
// group, or by some groups but not all, is split-brained — a query
// against it would silently cover only part of the domain.
func listTables(ctx context.Context, owner *ownerengine.Owner, table string, m int) {
	ng := owner.NumGroups()
	// inv[name][g][phi] is the table's status on group g's server φ
	// (nil where that server does not serve it).
	inv := make(map[string][][]*protocol.TableStatus)
	slot := func(name string) [][]*protocol.TableStatus {
		if inv[name] == nil {
			inv[name] = make([][]*protocol.TableStatus, ng)
			for g := range inv[name] {
				inv[name][g] = make([]*protocol.TableStatus, params.NumServers)
			}
		}
		return inv[name]
	}
	dead := make([]bool, ng)
	for g := 0; g < ng; g++ {
		// Liveness before inventory: a dead server should print as
		// UNREACHABLE with its address, not abort the whole sweep — the
		// healthy groups' inventories are exactly what an operator
		// diagnosing a partial outage needs to see.
		if err := owner.PingGroup(ctx, g); err != nil {
			fmt.Printf("UNREACHABLE — %v\n", err)
			dead[g] = true
			continue
		}
		lists, err := owner.ListTablesGroup(ctx, g)
		if err != nil {
			fatal(err)
		}
		for phi, tables := range lists {
			prefix := fmt.Sprintf("group %d server %d", g, phi)
			if len(tables) == 0 {
				fmt.Printf("%s: no tables served\n", prefix)
			}
			for i := range tables {
				t := &tables[i]
				fmt.Printf("%s: table %q epoch %d owners %v (b=%d, agg=%v, verify=%v)\n",
					prefix, t.Spec.Name, t.Epoch, t.Owners, t.Spec.B, t.Spec.AggCols, t.Spec.HasVerify)
				slot(t.Spec.Name)[g][phi] = t
			}
		}
	}

	names := make([]string, 0, len(inv))
	for name := range inv {
		names = append(names, name)
	}
	sort.Strings(names)
	targetHealthy := false
	for _, name := range names {
		gv := inv[name]
		var problems []string
		allOwners := true
		for g := 0; g < ng; g++ {
			served, owners, mismatch := 0, "", false
			for phi := 0; phi < params.NumServers; phi++ {
				st := gv[g][phi]
				if st == nil {
					continue
				}
				served++
				if len(st.Owners) != m {
					allOwners = false
				}
				os := fmt.Sprint(st.Owners)
				if owners == "" {
					owners = os
				} else if os != owners {
					mismatch = true
				}
			}
			switch {
			case dead[g]:
				problems = append(problems, fmt.Sprintf("group %d is unreachable", g))
			case served == 0:
				problems = append(problems, fmt.Sprintf("group %d does not serve it", g))
			case served < params.NumServers:
				problems = append(problems, fmt.Sprintf("only %d/%d of group %d's servers serve it", served, params.NumServers, g))
			case mismatch:
				problems = append(problems, fmt.Sprintf("group %d's servers disagree on the registered owners", g))
			}
		}
		switch {
		case len(problems) > 0:
			fmt.Printf("table %q: SPLIT-BRAIN — %s\n", name, strings.Join(problems, "; "))
		case !allOwners:
			fmt.Printf("table %q: served everywhere but missing owners (want all %d)\n", name, m)
		default:
			fmt.Printf("table %q: served by all servers in all %d group(s) with all %d owners\n", name, ng, m)
			if name == table {
				targetHealthy = true
			}
		}
	}
	if !targetHealthy {
		fmt.Printf("table %q: NOT fully served (outsourcing needed)\n", table)
	}
}

// loadCSV parses "key,COL..." rows into owner data (keys are 1-based).
func loadCSV(path string, b uint64) (*ownerengine.Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 1 || len(rows[0]) < 1 || rows[0][0] != "key" {
		return nil, fmt.Errorf("csv must start with a 'key,...' header")
	}
	header := rows[0][1:]
	data := &ownerengine.Data{Aggs: make(map[string][]uint64, len(header))}
	for _, col := range header {
		data.Aggs[col] = nil
	}
	for i, row := range rows[1:] {
		if len(row) != len(header)+1 {
			return nil, fmt.Errorf("row %d: %d fields, want %d", i+2, len(row), len(header)+1)
		}
		key, err := strconv.ParseUint(row[0], 10, 64)
		if err != nil || key == 0 || key > b {
			return nil, fmt.Errorf("row %d: key %q outside [1, %d]", i+2, row[0], b)
		}
		data.Cells = append(data.Cells, key-1)
		for c, col := range header {
			v, err := strconv.ParseUint(row[c+1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %w", i+2, col, err)
			}
			data.Aggs[col] = append(data.Aggs[col], v)
		}
	}
	return data, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "prism-owner:", err)
	os.Exit(1)
}
