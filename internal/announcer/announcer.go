// Package announcer implements S_a, the announcer of the paper (§3.2
// entity 4): it participates only in maximum, minimum and median queries.
// It receives the PF-permuted slot matrices of big additive shares (one
// column per result cell of the round) from the two additive-share
// servers, reconstructs the order-preserving masked values
// v_i = F(M_i) + r_i, and announces per column the winning value (or the
// median value(s)) and the winning slot — both re-shared additively so
// that the servers relaying them learn nothing (§6.3 Step 4, Equations
// 13-14).
//
// S_a sees only masked values: it learns an ordering of blinded points,
// never any M_i, and never which real owner a slot belongs to (slots are
// PF-permuted and PF is unknown to S_a).
package announcer

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"
	"time"

	"prism/internal/params"
	"prism/internal/protocol"
	"prism/internal/share"
)

// Engine is the announcer node.
type Engine struct {
	view *params.AnnouncerView

	mu      sync.Mutex
	pending map[string]*state
}

type state struct {
	kind    protocol.ExtremeKind
	k       int           // cells in the round, fixed by the first announce
	slots   [2][][][]byte // per server: M slot rows × k cells; nil until it announced
	results [2]*protocol.AnnounceFetchReply
	// vals[c] are cell c's reconstructed masked values, retained after
	// resolve so the query can reduce its rounds to one global outcome
	// (ExtremeReduceRequest) before retiring them.
	vals [][]*big.Int
}

// ErrBadSlots rejects an announce whose slot matrix is not M rows of one
// common, non-zero length k, or whose k differs from the other server's.
var ErrBadSlots = errors.New("announcer: bad slot matrix")

// New builds an announcer for the given view.
func New(v *params.AnnouncerView) *Engine {
	return &Engine{view: v, pending: make(map[string]*state)}
}

// Sessions reports the number of live per-query states (tests and
// monitoring): it must return to zero once queriers retire their query
// ids, or sustained max/min/median traffic accumulates state forever.
func (e *Engine) Sessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Handle implements transport.Handler.
func (e *Engine) Handle(_ context.Context, req any) (any, error) {
	switch r := req.(type) {
	case protocol.AnnounceRequest:
		return e.handleAnnounce(r)
	case protocol.AnnounceFetchRequest:
		return e.handleFetch(r)
	case protocol.ExtremeReduceRequest:
		return e.handleReduce(r)
	case protocol.PingRequest:
		return protocol.PingReply{Site: "announcer"}, nil
	case protocol.QueryDoneRequest:
		e.mu.Lock()
		delete(e.pending, r.QueryID)
		e.mu.Unlock()
		return protocol.QueryDoneReply{}, nil
	default:
		return nil, fmt.Errorf("announcer: unknown request type %T", req)
	}
}

func (e *Engine) handleAnnounce(r protocol.AnnounceRequest) (any, error) {
	if r.ServerIdx < 0 || r.ServerIdx > 1 {
		return nil, fmt.Errorf("announcer: bad server index %d", r.ServerIdx)
	}
	if len(r.Slots) != e.view.M {
		return nil, fmt.Errorf("%w: got %d slots, want %d", ErrBadSlots, len(r.Slots), e.view.M)
	}
	k := len(r.Slots[0])
	if k == 0 {
		return nil, fmt.Errorf("%w: query %q announces no cells", ErrBadSlots, r.QueryID)
	}
	for s, row := range r.Slots {
		if len(row) != k {
			return nil, fmt.Errorf("%w: query %q slot %d has %d cells, slot 0 has %d", ErrBadSlots, r.QueryID, s, len(row), k)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.pending[r.QueryID]
	if ok && st.kind != r.Kind {
		return nil, fmt.Errorf("announcer: query %q kind mismatch", r.QueryID)
	}
	if ok && st.k != k {
		return nil, fmt.Errorf("%w: query %q: server %d announces %d cells, the round has %d", ErrBadSlots, r.QueryID, r.ServerIdx, k, st.k)
	}
	if !ok {
		st = &state{kind: r.Kind, k: k}
		e.pending[r.QueryID] = st
	}
	if st.slots[r.ServerIdx] == nil {
		st.slots[r.ServerIdx] = r.Slots
	}
	if st.slots[0] != nil && st.slots[1] != nil && st.results[0] == nil {
		start := time.Now()
		if err := e.resolve(st); err != nil {
			return nil, err
		}
		mResolves.Inc()
		mResolveSeconds.Observe(time.Since(start).Seconds())
	}
	have := 0
	for _, slots := range st.slots {
		if slots != nil {
			have++
		}
	}
	return protocol.AnnounceReply{Have: have}, nil
}

// resolve adds the two share matrices (Equation 13), finds the requested
// statistic of every column (Equation 14) and builds per-server result
// shares.
func (e *Engine) resolve(st *state) error {
	m, q := e.view.M, e.view.Q
	res0 := &protocol.AnnounceFetchReply{Ready: true}
	res1 := &protocol.AnnounceFetchReply{Ready: true}
	all := make([][]*big.Int, st.k)
	for c := range all {
		vals := make([]*big.Int, m)
		for i := range vals {
			v := new(big.Int).SetBytes(st.slots[0][i][c])
			v.Add(v, new(big.Int).SetBytes(st.slots[1][i][c]))
			vals[i] = v.Mod(v, q)
		}
		all[c] = vals

		var resultVals []*big.Int
		switch st.kind {
		case protocol.KindMax, protocol.KindMin:
			index := extremeIndex(vals, st.kind == protocol.KindMax)
			resultVals = []*big.Int{vals[index]}
			i0, i1, err := splitIndex(uint64(index), e.view.Delta)
			if err != nil {
				return err
			}
			res0.IndexShares = append(res0.IndexShares, i0)
			res1.IndexShares = append(res1.IndexShares, i1)
		case protocol.KindMedian:
			resultVals = middle(vals) // sorts the retained values; a median reduce pools them in any order
		default:
			return fmt.Errorf("announcer: unknown kind %v", st.kind)
		}
		// Re-share each result value additively between the two servers.
		for _, v := range resultVals {
			sh, err := share.BigSplit(v, q, 2)
			if err != nil {
				return fmt.Errorf("announcer: sharing result: %w", err)
			}
			res0.ValueShares = append(res0.ValueShares, sh[0].Bytes())
			res1.ValueShares = append(res1.ValueShares, sh[1].Bytes())
		}
	}
	st.results[0], st.results[1] = res0, res1
	st.vals = all
	return nil
}

// beats reports whether a is strictly more extreme than b.
func beats(a, b *big.Int, wantGreater bool) bool {
	c := a.Cmp(b)
	return c != 0 && (c > 0) == wantGreater
}

// extremeIndex returns the position of the largest (or smallest) value,
// the first one on ties.
func extremeIndex(vals []*big.Int, wantGreater bool) int {
	index := 0
	for i := 1; i < len(vals); i++ {
		if beats(vals[i], vals[index], wantGreater) {
			index = i
		}
	}
	return index
}

// middle sorts pool in place and returns its median element, or the two
// middle elements when the count is even.
func middle(pool []*big.Int) []*big.Int {
	sort.Slice(pool, func(a, b int) bool { return pool[a].Cmp(pool[b]) < 0 })
	n := len(pool)
	if n%2 == 1 {
		return pool[n/2 : n/2+1]
	}
	return pool[n/2-1 : n/2+1]
}

// handleReduce folds the retained values of a query's resolved vector
// rounds into one query-global outcome. The values it compares are the
// same masked points it already announced per cell (one F, shared
// across groups, keeps them comparable), so nothing new leaks; the
// winning value goes back to the querier, who unmasks it exactly as it
// unmasks a per-cell result.
func (e *Engine) handleReduce(r protocol.ExtremeReduceRequest) (any, error) {
	if len(r.SubQueryIDs) == 0 {
		return nil, fmt.Errorf("announcer: reduce %q: no sub-queries", r.QueryID)
	}
	start := time.Now()
	defer func() { mReduceSeconds.Observe(time.Since(start).Seconds()) }()
	e.mu.Lock()
	defer e.mu.Unlock()
	rounds := make([][][]*big.Int, len(r.SubQueryIDs))
	for i, qid := range r.SubQueryIDs {
		st, ok := e.pending[qid]
		if !ok || st.vals == nil {
			return nil, fmt.Errorf("announcer: reduce %q: sub-query %q not resolved", r.QueryID, qid)
		}
		if st.kind != r.Kind {
			return nil, fmt.Errorf("announcer: reduce %q: sub-query %q is %v, want %v", r.QueryID, qid, st.kind, r.Kind)
		}
		rounds[i] = st.vals
	}

	rep := protocol.ExtremeReduceReply{}
	switch r.Kind {
	case protocol.KindMax, protocol.KindMin:
		wantGreater := r.Kind == protocol.KindMax
		var best *big.Int
		for i, cells := range rounds {
			for c, vals := range cells {
				cand := vals[extremeIndex(vals, wantGreater)]
				if best == nil || beats(cand, best, wantGreater) {
					rep.WinnerSub, rep.WinnerCell, best = i, c, cand
				}
			}
		}
		rep.Values = [][]byte{best.Bytes()}
		rep.HasWinner = true
	case protocol.KindMedian:
		var pool []*big.Int
		for _, cells := range rounds {
			for _, vals := range cells {
				pool = append(pool, vals...)
			}
		}
		for _, v := range middle(pool) {
			rep.Values = append(rep.Values, v.Bytes())
		}
	default:
		return nil, fmt.Errorf("announcer: reduce %q: unknown kind %v", r.QueryID, r.Kind)
	}
	rep.Spans = reduceSpan(r.TraceID, start)
	return rep, nil
}

// splitIndex additively shares the winning slot index in Z_δ.
func splitIndex(idx, delta uint64) (uint16, uint16, error) {
	r, err := share.BigSplit(new(big.Int).SetUint64(idx), new(big.Int).SetUint64(delta), 2)
	if err != nil {
		return 0, 0, err
	}
	return uint16(r[0].Uint64()), uint16(r[1].Uint64()), nil
}

func (e *Engine) handleFetch(r protocol.AnnounceFetchRequest) (any, error) {
	if r.ServerIdx < 0 || r.ServerIdx > 1 {
		return nil, fmt.Errorf("announcer: bad server index %d", r.ServerIdx)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.pending[r.QueryID]
	if !ok || st.results[r.ServerIdx] == nil {
		return protocol.AnnounceFetchReply{Ready: false}, nil
	}
	return *st.results[r.ServerIdx], nil
}
