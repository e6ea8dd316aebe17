package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rnb"
	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/xhash"
)

// Every live mix runs on the same tier shape: tierServers in-process
// servers holding tierKeys keys.
const (
	tierServers = 4
	tierKeys    = 20000
	// overbookFactor is the overbooked tier's store budget as a
	// multiple of one copy of the data.
	overbookFactor = 1.5
)

// clientPlannerOptions are the planning options rnb.Client uses by
// default.
var clientPlannerOptions = core.Options{Hitchhike: true, DistinguishedSingles: true}

// liveSpec is one traffic mix driven through a loopback tier.
type liveSpec struct {
	callers int
	// overbooked sizes each store so the tier holds about 1.5 copies of
	// the data and mixes setFraction percent Sets into the stream.
	overbooked bool
	binary     bool // the client speaks the binary protocol (replays match it)
	opts       []rnb.Option
}

// itemCost mirrors the store's per-entry accounting: key, value and a
// fixed 56-byte overhead.
func itemCost(key string) int64 { return int64(len(key) + valueSize + 56) }

func (sp liveSpec) perServerBytes(s *stream) int64 {
	if !sp.overbooked {
		return 0
	}
	return int64(overbookFactor*float64(int64(len(s.keys))*itemCost(s.keys[0]))) / tierServers
}

// target is what a caller drives: the tier's rnb.Client, or a stub
// that measures the load generator alone.
type target interface {
	GetMulti(keys []string) (map[string]*rnb.Item, rnb.Stats, error)
	Set(it *rnb.Item) error
}

// liveBench is a set-up tier with its inputs.
type liveBench struct {
	spec   liveSpec
	s      *stream
	o      *oracle
	t      *tier // nil when driving a stub
	tg     target
	next   atomic.Int64 // next stream index; warm-up and windows continue the stream
	rate   float64      // operations per second during the warm-up
	setupS float64
	pre    *prefix // nil until the measurement starts
}

// prefix records what the first prefixReqs measured operations of a
// run cost. Callers take stream indices from one counter, so measured
// operations are contiguous in the stream and the prefix is the same
// fixed, seeded slice of it on every run with a seed.
type prefix struct {
	first  int     // stream index of the first measured operation
	txns   []int32 // transactions per operation; -1 marks a Set
	round1 []int32 // round-1 share of txns
	filled []bool
}

func newPrefix(first int) *prefix {
	return &prefix{first: first, txns: make([]int32, prefixReqs), round1: make([]int32, prefixReqs), filled: make([]bool, prefixReqs)}
}

// record stores stream index i's cost if it falls in the prefix. Each
// index is recorded by one caller only.
func (p *prefix) record(i int, txns, round1 int32) {
	if p == nil {
		return
	}
	if m := i - p.first; m >= 0 && m < prefixReqs {
		p.txns[m], p.round1[m], p.filled[m] = txns, round1, true
	}
}

// tpr is the mean transactions per multi-get over the prefix, which
// repeats exactly for a seed whatever the window's length.
func (p *prefix) tpr() (float64, error) {
	sum, n := 0, 0
	for m, t := range p.txns {
		if !p.filled[m] {
			return 0, fmt.Errorf("measurement ended before operation %d; tpr covers the first %d", m, prefixReqs)
		}
		if t >= 0 {
			sum += int(t)
			n++
		}
	}
	return float64(sum) / float64(n), nil
}

func setupLive(spec liveSpec, seed int64, setups int) (*liveBench, error) {
	s := newStream(seed, tierKeys, spec.overbooked)
	addrs := tierAddrs(seed, tierServers)
	build := func() (*liveBench, error) {
		t, err := startTier(addrs, spec.perServerBytes(s), spec.opts)
		if err != nil {
			return nil, err
		}
		if err := t.preload(s); err != nil {
			t.close()
			return nil, err
		}
		lb := &liveBench{spec: spec, s: s, o: newOracle(s), t: t, tg: t.client}
		w := lb.window(0, warmupReqs, nil)
		lb.rate = float64(w.requests()) / w.wall.Seconds()
		return lb, nil
	}
	lb, secs, err := timedSetup(setups, build, func(lb *liveBench) error { return lb.t.close() })
	if err != nil {
		return nil, err
	}
	lb.setupS = secs
	return lb, nil
}

// counts are what a window's operations reported: operations that
// failed the oracle or returned an error, and the multi-gets'
// transactions, round-2 transactions and failed transactions.
type counts struct {
	failed, txns, round2, failedTxns int
}

func (c *counts) add(o counts) {
	c.failed += o.failed
	c.txns += o.txns
	c.round2 += o.round2
	c.failedTxns += o.failedTxns
}

// callerStats is one caller's share of a window. Latencies go into
// buffers sized before the window starts.
type callerStats struct {
	getLat, setLat []int64
	counts
}

// windowResult aggregates one measured window.
type windowResult struct {
	getLat, setLat []int64
	counts
	wall       time.Duration
	res        resources
	srv        serverTotals // deltas, except bytes: the level at the end
	clientTxns uint64       // delta
}

func (w *windowResult) requests() int { return len(w.getLat) + len(w.setLat) }

// newStats sizes one window's per-caller latency buffers: twice the
// warm-up rate over d, or n operations when n > 0. Buffers for a whole
// measurement are made before it starts, so the heap the program's
// garbage collector paces against stays the same throughout.
func (lb *liveBench) newStats(d time.Duration, n int) []callerStats {
	callers := lb.spec.callers
	capPer := n/callers + 1
	if n == 0 {
		capPer = int(2*lb.rate*d.Seconds())/callers + 1024
	}
	stats := make([]callerStats, callers)
	for c := range stats {
		stats[c].getLat = make([]int64, 0, capPer)
		stats[c].setLat = make([]int64, 0, capPer)
	}
	return stats
}

// window drives the callers closed-loop: each sends its next operation
// only when the previous one returned. It stops after n operations when
// n > 0, else when d has elapsed or a caller's buffer is full. stats,
// when non-nil, holds buffers from newStats.
func (lb *liveBench) window(d time.Duration, n int, stats []callerStats) *windowResult {
	callers := lb.spec.callers
	first := int(lb.next.Load())
	if stats == nil {
		stats = lb.newStats(d, n)
	}
	w := &windowResult{}
	var srv0 serverTotals
	var txn0 uint64
	if lb.t != nil {
		srv0, txn0 = lb.t.totals(), lb.t.client.Transactions()
	}
	runtime.GC()
	res0 := readResources()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lb.drive(first, n, deadline, &stats[c])
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	if n > 0 {
		lb.next.Store(int64(first + n)) // indices taken past n were not run
	}
	w.res = readResources().since(res0)
	if lb.t != nil {
		srv1 := lb.t.totals()
		w.clientTxns = lb.t.client.Transactions() - txn0
		w.srv = serverTotals{
			txns: srv1.txns - srv0.txns, cmdSet: srv1.cmdSet - srv0.cmdSet,
			hits: srv1.hits - srv0.hits, misses: srv1.misses - srv0.misses,
			evictions: srv1.evictions - srv0.evictions, bytes: srv1.bytes,
		}
	}
	if callers == 1 {
		w.getLat, w.setLat = stats[0].getLat, stats[0].setLat
	}
	for c := range stats {
		cs := &stats[c]
		if callers > 1 {
			w.getLat = append(w.getLat, cs.getLat...)
			w.setLat = append(w.setLat, cs.setLat...)
		}
		w.add(cs.counts)
	}
	return w
}

// drive is one caller. It checks the deadline before taking a stream
// index, so every index taken in a timed window is run.
func (lb *liveBench) drive(first, n int, deadline time.Time, cs *callerStats) {
	keys := make([]string, keysPerGet)
	for {
		if n == 0 && (len(cs.getLat)+len(cs.setLat) == cap(cs.getLat) || !time.Now().Before(deadline)) {
			return
		}
		i := int(lb.next.Add(1) - 1)
		if n > 0 && i-first >= n {
			return
		}
		if it := lb.s.set(i); it != nil {
			t0 := time.Now()
			err := lb.tg.Set(it)
			cs.setLat = append(cs.setLat, int64(time.Since(t0)))
			if err != nil {
				cs.failed++
			} else {
				lb.o.wrote(it)
			}
			lb.pre.record(i, -1, 0)
			continue
		}
		req := lb.s.request(i)
		for j, k := range req {
			keys[j] = lb.s.keys[k]
		}
		t0 := time.Now()
		out, st, err := lb.tg.GetMulti(keys)
		cs.getLat = append(cs.getLat, int64(time.Since(t0)))
		if err != nil || !lb.o.check(lb.s, req, out) {
			cs.failed++
		}
		cs.txns += st.Transactions
		cs.round2 += st.Round2
		cs.failedTxns += st.Failed
		lb.pre.record(i, int32(st.Transactions), int32(st.Transactions-st.Round2-st.Retries))
	}
}

// clientPlanner builds a planner the way rnb.Client does: a ring of
// the tier's addresses in order, RCH placement at r, and the client's
// default planning options.
func clientPlanner(addrs []string) (*core.Planner, *hashring.RCHPlacement, error) {
	ring := hashring.New(hashring.DefaultVirtualNodes)
	for _, a := range addrs {
		if _, err := ring.AddServer(a); err != nil {
			return nil, nil, err
		}
	}
	plc := hashring.NewRCHPlacement(ring, replicas)
	return core.NewPlanner(plc, clientPlannerOptions), plc, nil
}

func never(int) bool { return false }

// requestIDs maps a request's keys to planner item ids, as the client
// does.
func (s *stream) requestIDs(req []int32, ids []uint64) []uint64 {
	ids = ids[:0]
	for _, k := range req {
		ids = append(ids, xhash.String(s.keys[k]))
	}
	return ids
}

// checkFidelity replays the run's prefix through an out-of-client
// planner and requires the live client's round-1 transaction count for
// every multi-get.
func (lb *liveBench) checkFidelity() error {
	p, _, err := clientPlanner(lb.t.addrs)
	if err != nil {
		return err
	}
	var ids []uint64
	for m, t := range lb.pre.txns {
		if !lb.pre.filled[m] || t < 0 {
			continue
		}
		i := lb.pre.first + m
		ids = lb.s.requestIDs(lb.s.request(i), ids)
		plan, err := p.BuildAvoiding(ids, 0, never)
		if err != nil {
			return err
		}
		if int32(len(plan.Transactions)) != lb.pre.round1[m] {
			return fmt.Errorf("request %d: replayed planner made %d round-1 transactions, live client %d",
				i, len(plan.Transactions), lb.pre.round1[m])
		}
	}
	return nil
}

// checkAccounting requires the servers' transaction count to equal the
// client's: every get bundle the client reported plus every set
// command (client Sets and write-backs) the servers saw, and the
// transports' own count.
func (w *windowResult) checkAccounting() error {
	gets := w.srv.txns - w.srv.cmdSet
	if gets != uint64(w.txns) {
		return fmt.Errorf("servers counted %d get transactions, client reported %d", gets, w.txns)
	}
	if w.srv.txns != w.clientTxns {
		return fmt.Errorf("servers counted %d transactions, client transports %d", w.srv.txns, w.clientTxns)
	}
	return nil
}

// runLive is a --trace 0 run of a live mix: set up, one measured
// window with tracing off, checks, end-to-end metrics.
func runLive(rep *report, spec liveSpec, seed int64, d time.Duration) (err error) {
	lb, err := setupLive(spec, seed, liveSetups)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, lb.t.close()) }()
	stats := make([][]callerStats, subWindows)
	for i := range stats {
		stats[i] = lb.newStats(d/subWindows, 0)
	}
	lb.pre = newPrefix(int(lb.next.Load()))
	var parts []part
	for i := 0; i < subWindows; i++ {
		w := lb.window(d/subWindows, 0, stats[i])
		lb.checkWindow(rep, w)
		parts = append(parts, part{lat: w.getLat, requests: w.requests(), wall: w.wall, res: w.res})
	}
	rep.check(lb.checkFidelity())
	tpr, err := lb.pre.tpr()
	rep.check(err)
	endToEnd(rep, parts, tpr, lb.setupS)
	return nil
}

// checkWindow counts the window's operations and runs its correctness
// checks: the oracle's per-operation verdicts and server-side
// accounting.
func (lb *liveBench) checkWindow(rep *report, w *windowResult) {
	rep.Attempted += w.requests()
	rep.Failed += w.failed
	if w.failed > 0 {
		rep.check(fmt.Errorf("%d of %d operations failed or returned missing or stale values", w.failed, w.requests()))
	}
	rep.check(w.checkAccounting())
}
