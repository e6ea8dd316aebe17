package core

import (
	"sync"

	"rnb/internal/xhash"
)

// Stage names the part of the request protocol a fetch belongs to.
type Stage uint8

const (
	// StageRound1 sends the planned bundles, hitchhikers aboard (§III-A).
	StageRound1 Stage = iota
	// StageReplan re-covers the still-missing assigned items over the
	// servers that survived a failed round-1 transaction.
	StageReplan
	// StageRound2 fetches the remaining misses, bundled, from their
	// acting distinguished copies (§III-D).
	StageRound2
	// stageFallback marks Got calls from Fetcher.Fallback.
	stageFallback
)

// Fetcher is the transport Execute drives: the simulator's LRU stores
// or the live client's memcache connections. Execute owns the protocol
// (which transactions, which write-backs, which shortfall, in which
// order); a Fetcher only moves items.
type Fetcher interface {
	// Fetch issues one round of transactions, in any order or in
	// parallel, and reports every item a transaction returns through
	// r.Got and every failed transaction through r.Failed. Calls into r
	// must not overlap. round numbers re-plan rounds from 1 and is 0
	// for the other stages.
	Fetch(r *Results, stage Stage, round int, txns []Transaction)
	// WriteBack stores item on server unless the server already holds
	// it (add-if-absent), so a concurrent newer write is never
	// clobbered (§III-C-2).
	WriteBack(server int, item uint64)
	// Fallback is handed the items the cache tier could not supply,
	// in plan order, and reports each one it obtains elsewhere (the
	// authoritative store) through r.Got with server -1.
	Fallback(r *Results, items []uint64)
}

// ExecConfig is the per-request input to Execute.
type ExecConfig struct {
	// Target is the request's LIMIT target; <= 0 means every item.
	Target int
	// Avoid is the server filter the plan was built with (nil: every
	// server is up). Servers whose transactions fail during the
	// request are avoided on top of it for the rest of the request.
	Avoid func(server int) bool
	// Planner re-covers the still-missing items after failed round-1
	// transactions, for up to Replans rounds (nil or 0: failures punt
	// straight to round 2, as the paper's base §III-D scheme does).
	Planner *Planner
	Replans int
	// NoRound2 ends the protocol after round 1 (and any re-plan): a
	// budget request (§III-F) may not exceed its transaction cap.
	NoRound2 bool
	// WriteBack writes every assigned item that was still missing after
	// round 1, and was recovered later, back to its assigned server.
	WriteBack bool
}

// Outcome is what one executed request cost and obtained.
type Outcome struct {
	// Transactions counts every transaction issued: round 1, re-plan
	// and round 2 (write-backs are stores, not fetch transactions).
	Transactions int
	Round2       int
	// Replans counts re-plan rounds; Retries the transactions they
	// issued.
	Replans int
	Retries int
	// Failed counts transactions the Fetcher reported failed.
	Failed int
	// Hitchhikers counts hitchhiker keys carried by round-1 and
	// re-plan transactions.
	Hitchhikers int
	// Misses counts assigned items their round-1 primary lookup did not
	// return, hitchhiker-rescued ones included; HitchhikeHits counts
	// items round 1 obtained through a hitchhiker rather than their
	// primary lookup.
	Misses        int
	HitchhikeHits int
	// DistinguishedMisses counts round-2 items their true (not acting)
	// distinguished copy did not return.
	DistinguishedMisses int
	// Fallback counts the items the Fetcher's Fallback supplied.
	Fallback int
	// WriteBacks counts the write-backs issued.
	WriteBacks int
	// Obtained counts distinct requested items obtained.
	Obtained int
	// Bottleneck is the largest number of keys any single server was
	// asked for across the request's transactions.
	Bottleneck int
}

// Per-item state bits.
const (
	itemGot     uint8 = 1 << iota // obtained
	itemPrimary                   // round-1 primary lookup returned it
	itemLate                      // assigned, still missing after round 1
)

// Results is one request's execution state. Fetchers report into it;
// everything else about it is private to Execute. Results are pooled,
// so steady-state execution allocates nothing.
type Results struct {
	plan  *Plan
	cfg   ExecConfig
	out   Outcome
	stage Stage

	state []uint8
	from  []int32 // server that delivered each obtained item (-1: fallback)
	slots []int32 // open-addressing item id -> plan position + 1
	mask  uint64

	failed   []int // servers whose transactions failed, this request
	newFails int   // failures reported by the current round
	keys     []serverKeys
	ids      []uint64
	acting   []int
	actingOf [][]int
	avoidFn  func(int) bool // r.avoided, bound once per pooled Results
}

type serverKeys struct{ server, keys int }

var resultsPool = sync.Pool{New: func() interface{} {
	r := &Results{}
	r.avoidFn = r.avoided
	return r
}}

// Got records that server (-1: the fallback) returned item, which must
// be one the plan requested. It reports whether this is the item's
// first copy; later copies change nothing.
func (r *Results) Got(item uint64, server int) bool {
	i := r.find(item)
	if r.stage == StageRound1 && server == r.plan.ItemServer[i] {
		r.state[i] |= itemPrimary
	}
	if r.state[i]&itemGot != 0 {
		return false
	}
	r.state[i] |= itemGot
	r.from[i] = int32(server)
	r.out.Obtained++
	if server < 0 {
		r.out.Fallback++
	}
	return true
}

// Failed records a failed transaction to server. The server is avoided
// for the rest of the request, ahead of any shared failure view.
func (r *Results) Failed(server int) {
	r.out.Failed++
	r.newFails++
	r.failed = append(r.failed, server)
}

// avoided is the request's current server filter: the configured
// filter plus the servers that failed during this request.
func (r *Results) avoided(s int) bool {
	for _, f := range r.failed {
		if f == s {
			return true
		}
	}
	return r.cfg.Avoid != nil && r.cfg.Avoid(s)
}

func (r *Results) avoid() func(int) bool {
	if len(r.failed) == 0 {
		return r.cfg.Avoid
	}
	return r.avoidFn
}

// reset sizes the per-item state and the id index for plan. The index
// is a power-of-two table at least twice the request size, cleared in
// O(request) — a pooled map would cost as much to clear as the largest
// request it ever held.
func (r *Results) reset(plan *Plan, cfg ExecConfig) {
	m := len(plan.Items)
	r.plan, r.cfg, r.out, r.stage = plan, cfg, Outcome{}, StageRound1
	r.state = resize(r.state, m)
	r.from = resize(r.from, m)
	n := 2
	for n < 2*m {
		n <<= 1
	}
	r.slots = resize(r.slots, n)
	r.mask = uint64(n - 1)
	for i, id := range plan.Items {
		h := xhash.Mix64(id) & r.mask
		for r.slots[h] != 0 {
			h = (h + 1) & r.mask
		}
		r.slots[h] = int32(i + 1)
	}
	r.failed, r.newFails, r.keys = r.failed[:0], 0, r.keys[:0]
}

// resize returns s with length n, zeroed, reusing its backing array.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// find returns the plan position of a requested item.
func (r *Results) find(item uint64) int {
	h := xhash.Mix64(item) & r.mask
	for r.plan.Items[r.slots[h]-1] != item {
		h = (h + 1) & r.mask
	}
	return int(r.slots[h] - 1)
}

// fetch runs one round through f with the transaction accounting every
// stage shares.
func (r *Results) fetch(f Fetcher, stage Stage, round int, txns []Transaction) {
	r.stage, r.newFails = stage, 0
	if len(txns) == 0 {
		return
	}
	r.out.Transactions += len(txns)
	for i := range txns {
		r.addKeys(txns[i].Server, txns[i].Size())
		if stage != StageRound2 {
			r.out.Hitchhikers += len(txns[i].Hitchhikers)
		}
	}
	f.Fetch(r, stage, round, txns)
}

func (r *Results) addKeys(server, n int) {
	for i := range r.keys {
		if r.keys[i].server == server {
			r.keys[i].keys += n
			return
		}
	}
	r.keys = append(r.keys, serverKeys{server, n})
}

// Execute runs the RnB request protocol for plan through f: round 1,
// re-plan rounds after failed round-1 transactions, round 2 against the
// acting distinguished copies of the still-missing assigned items, the
// fallback for whatever the tier could not supply, and write-back. It
// is the only implementation of that protocol; the simulator and the
// live client differ only in their Fetcher.
//
// Write-back policy (§III-C-2): exactly the assigned items that were
// still missing after round 1 and were recovered later (by round 2 or
// the fallback) are written back, add-if-absent, to the server the
// planner assigned them — unless that server is the one that just
// returned the item, or is avoided — in plan order, after the fallback.
func Execute(plan *Plan, f Fetcher, cfg ExecConfig) (Outcome, error) {
	r := resultsPool.Get().(*Results)
	defer func() {
		r.plan, r.cfg.Avoid, r.cfg.Planner = nil, nil, nil
		resultsPool.Put(r)
	}()
	r.reset(plan, cfg)
	items := plan.Items

	r.fetch(f, StageRound1, 0, plan.Transactions)
	for i := range items {
		if r.state[i]&itemPrimary != 0 {
			continue
		}
		if plan.ItemServer[i] >= 0 {
			r.out.Misses++
		}
		if r.state[i]&itemGot != 0 {
			r.out.HitchhikeHits++
		}
	}

	for round := 1; round <= cfg.Replans && r.newFails > 0 && cfg.Planner != nil; round++ {
		r.ids = r.ids[:0]
		for i, id := range items {
			if plan.ItemServer[i] >= 0 && r.state[i]&itemGot == 0 {
				r.ids = append(r.ids, id)
			}
		}
		if len(r.ids) == 0 {
			break
		}
		replan, err := cfg.Planner.BuildAvoiding(r.ids, 0, r.avoid())
		if err != nil {
			return r.out, err
		}
		r.out.Replans++
		r.out.Retries += len(replan.Transactions)
		r.fetch(f, StageReplan, round, replan.Transactions)
	}

	for i := range items {
		if plan.ItemServer[i] >= 0 && r.state[i]&itemGot == 0 {
			r.state[i] |= itemLate
		}
	}

	if !cfg.NoRound2 {
		r.round2(f)
	}

	// The shortfall: what the tier could not supply, in plan order —
	// under a LIMIT plan only up to the target.
	target := cfg.Target
	if target <= 0 || target > len(items) {
		target = len(items)
	}
	r.ids = r.ids[:0]
	for i, id := range items {
		if r.out.Obtained+len(r.ids) >= target {
			break
		}
		if r.state[i]&itemGot == 0 {
			r.ids = append(r.ids, id)
		}
	}
	if len(r.ids) > 0 {
		r.stage = stageFallback
		f.Fallback(r, r.ids)
	}

	if cfg.WriteBack {
		avoid := r.avoid()
		for i, id := range items {
			s := plan.ItemServer[i]
			if r.state[i]&(itemLate|itemGot) == itemLate|itemGot && int(r.from[i]) != s &&
				(avoid == nil || !avoid(s)) {
				f.WriteBack(s, id)
				r.out.WriteBacks++
			}
		}
	}
	for _, sk := range r.keys {
		r.out.Bottleneck = max(r.out.Bottleneck, sk.keys)
	}
	return r.out, nil
}

// round2 bundles the still-missing assigned items by acting
// distinguished server and fetches them. Items without a live replica
// are left to the fallback.
func (r *Results) round2(f Fetcher) {
	plan := r.plan
	avoid := r.avoid()
	r.ids, r.acting = r.ids[:0], r.acting[:0]
	for i, id := range plan.Items {
		if r.state[i]&itemLate == 0 {
			continue
		}
		if s, ok := ActingDistinguished(plan.Replicas[i], avoid); ok {
			r.ids = append(r.ids, id)
			r.acting = append(r.acting, s)
		}
	}
	if len(r.ids) == 0 {
		return
	}
	r.actingOf = r.actingOf[:0]
	for j := range r.acting {
		r.actingOf = append(r.actingOf, r.acting[j:j+1])
	}
	txns := SecondRound(r.ids, r.actingOf)
	r.out.Round2 = len(txns)
	r.fetch(f, StageRound2, 0, txns)
	for j, id := range r.ids {
		i := r.find(id)
		if r.state[i]&itemGot == 0 && r.acting[j] == plan.Replicas[i][0] {
			r.out.DistinguishedMisses++
		}
	}
}
