package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rnb"
	"rnb/internal/cluster"
	"rnb/internal/hashring"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/workload"
)

// perLayer lists every --trace 1 metric. A layer a workload bypasses
// reports 0 (see WORKLOADS.md for which layer runs where).
var perLayer = []struct{ name, unit string }{
	{"hashring.replicas_ns", "ns"},
	{"core.build_ns", "ns"},
	{"core.build_allocs", "count"},
	{"core.txns_per_req", "txn/req"},
	{"core.hitchhikers_per_req", "count"},
	{"core.max_keys_per_server", "count"},
	{"rnb.round2_per_req", "txn/req"},
	{"rnb.writebacks_per_req", "count"},
	{"rnb.failed_txns_per_req", "txn/req"},
	{"rnb.client_queue_us_per_txn", "us"},
	{"rnb.self_us_per_req", "us"},
	{"rnb.set_p50_us", "us"},
	{"memcache.txn_us", "us"},
	{"memcache.client_allocs_per_txn", "count"},
	{"memcache.items_per_txn", "count"},
	{"memcache.wire_us_per_txn", "us"},
	{"memcache.pipeline_high_water", "count"},
	{"memcache.server_raw_txn_us", "us"},
	{"memcache.server_allocs_per_txn", "count"},
	{"memcache.server_queue_us", "us"},
	{"memcache.server_parse_us", "us"},
	{"memcache.server_lock_wait_us", "us"},
	{"memcache.server_exec_us", "us"},
	{"memcache.server_flush_us", "us"},
	{"memcache.server_txns_per_req", "txn/req"},
	{"memcache.get_hit_ratio", "ratio"},
	{"store.get_ns", "ns"},
	{"store.set_ns", "ns"},
	{"store.evictions_per_req", "count"},
	{"store.bytes_per_user_byte", "ratio"},
	{"cluster.plan_share", "ratio"},
	{"cluster.round2_per_req", "txn/req"},
	{"cluster.bottleneck_keys", "count"},
	{"loadgen.ns_per_req", "ns"},
	{"loadgen.allocs_per_req", "count"},
	{"runtime.gc_cycles_per_kreq", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.cpu_util", "ratio"},
	{"obs.trace_overhead_pct", "%"},
}

const (
	replayReqs  = 2000 // multi-gets replayed layer by layer
	loadgenReqs = 200000
	keptTraces  = 300 // client traces written to the span file
	keptReplays = 300 // replayed requests written to the span file
)

// fillPerLayer reports 0 for every layer metric the run did not
// measure and drops the end-to-end ones.
func fillPerLayer(rep *report) {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		v := rep.Metrics[l.name]
		m[l.name] = metric{Value: v.Value, Unit: l.unit}
	}
	rep.Metrics = m
}

// span is one call into a layer, recorded by the benchmark around the
// call: spans of one replayed request share req; parent 0 marks a root.
type span struct {
	name            string
	id, parent, req uint64
	start, end      time.Time
}

// recorder keeps spans in memory, up to its capacity, until the run
// writes them out.
type recorder struct {
	spans  []span
	nextID uint64
}

func newRecorder(n int) *recorder { return &recorder{spans: make([]span, 0, n)} }

func (r *recorder) id() uint64 { r.nextID++; return r.nextID }

func (r *recorder) put(id uint64, name string, parent, req uint64, start, end time.Time) {
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, span{name: name, id: id, parent: parent, req: req, start: start, end: end})
	}
}

func (r *recorder) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := r.id()
	r.put(id, name, parent, req, start, end)
	return id
}

// layerTimes sums each span name's duration and self time (duration
// minus the part of it that child spans cover) and counts its spans.
func (r *recorder) layerTimes() map[string]*[3]float64 {
	children := map[uint64][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*[3]float64{}
	for _, s := range r.spans {
		t := out[s.name]
		if t == nil {
			t = new([3]float64)
			out[s.name] = t
		}
		dur := s.end.Sub(s.start).Nanoseconds()
		ivs := make([][2]int64, 0, len(children[s.id]))
		for _, c := range children[s.id] {
			ivs = append(ivs, [2]int64{c.start.UnixNano(), c.end.UnixNano()})
		}
		t[0] += float64(dur)
		t[1] += float64(dur - unionNS(ivs))
		t[2]++
	}
	return out
}

// meanNS returns the mean duration of the named spans, divided by per
// (the calls each span covers).
func meanNS(times map[string]*[3]float64, name string, per float64) float64 {
	t := times[name]
	if t == nil || t[2] == 0 {
		return 0
	}
	return t[0] / t[2] / per
}

// unionNS is the length covered by a set of intervals.
func unionNS(ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
			continue
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// obsSpans turns the first n root spans of each name, with their
// children, into obs.Spans, one thread per layer, so
// obs.WriteTraceEvents can render them.
func (r *recorder) obsSpans(n int) []obs.Span {
	var out []obs.Span
	index := map[uint64]int{}
	lanes := map[string]int{}
	roots := map[string]int{}
	for _, s := range r.spans {
		if s.parent == 0 && roots[s.name] < n {
			roots[s.name]++
			index[s.id] = len(out)
			out = append(out, obs.Span{ID: s.req, Op: s.name, Start: s.start, TotalNS: s.end.Sub(s.start).Nanoseconds()})
		}
	}
	for _, s := range r.spans {
		i, ok := index[s.parent]
		if !ok {
			continue
		}
		lane, ok := lanes[s.name]
		if !ok {
			lane = len(lanes)
			lanes[s.name] = lane
		}
		out[i].RTTs = append(out[i].RTTs, obs.TxnRTT{
			Server: lane, Addr: s.name, Phase: s.name, SpanID: s.id,
			OffsetNS: s.start.Sub(out[i].Start).Nanoseconds(), DurNS: s.end.Sub(s.start).Nanoseconds(),
		})
	}
	return out
}

// writeSpans writes client traces and replay spans as Chrome
// trace-event JSON, loadable in Perfetto.
func writeSpans(rep *report, path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	rep.note("span file: %s (%d spans; load in ui.perfetto.dev)", path, len(spans))
	return nil
}

// runtimeMetrics reports the Go runtime's share of a window.
func runtimeMetrics(rep *report, requests int, wall time.Duration, res resources) {
	rep.set("runtime.gc_cycles_per_kreq", "", float64(res.gcCycles)*1000/float64(requests))
	rep.set("runtime.gc_cpu_fraction", "", res.gcCPU/res.cpu.Seconds())
	rep.util = res.cpu.Seconds() / wall.Seconds()
	rep.set("runtime.cpu_util", "", rep.util)
}

// traceAgg folds every traced multi-get (rnb.WithTracing's OnFinish)
// into sums, keeping the first keptTraces spans for the span file.
type traceAgg struct {
	mu                  sync.Mutex
	reqs, selfNS        int64
	rtts, queueNS, keys int64
	// Round trips that carried server timings, and the sums of those
	// timings' wire residual and server phases.
	timed, wireNS                          int64
	srvQueue, parse, lockWait, exec, flush int64
	kept                                   []obs.Span
}

func (a *traceAgg) observe(sp *obs.Span) {
	ivs := make([][2]int64, 0, len(sp.RTTs))
	for _, r := range sp.RTTs {
		ivs = append(ivs, [2]int64{r.OffsetNS, r.OffsetNS + r.DurNS})
	}
	self := sp.TotalNS - unionNS(ivs)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reqs++
	a.selfNS += self
	for i := range sp.RTTs {
		r := &sp.RTTs[i]
		a.rtts++
		a.queueNS += r.QueueNS
		a.keys += int64(r.Keys)
		if st := r.ServerTimings; st != nil {
			a.timed++
			a.wireNS += r.WireNS()
			a.srvQueue += st.QueueNS
			a.parse += st.ParseNS
			a.lockWait += st.WaitNS
			a.exec += st.ExecNS
			a.flush += st.FlushNS
		}
	}
	if len(a.kept) < keptTraces {
		cp := *sp
		cp.RTTs = slices.Clone(sp.RTTs)
		a.kept = append(a.kept, cp)
	}
}

func perUS(ns, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

func (a *traceAgg) report(rep *report) {
	rep.set("rnb.self_us_per_req", "", perUS(a.selfNS, a.reqs))
	rep.set("rnb.client_queue_us_per_txn", "", perUS(a.queueNS, a.rtts))
	rep.set("memcache.items_per_txn", "", float64(a.keys)/float64(max(a.rtts, 1)))
	rep.set("memcache.wire_us_per_txn", "", perUS(a.wireNS, a.timed))
	rep.set("memcache.server_queue_us", "", perUS(a.srvQueue, a.timed))
	rep.set("memcache.server_parse_us", "", perUS(a.parse, a.timed))
	rep.set("memcache.server_lock_wait_us", "", perUS(a.lockWait, a.timed))
	rep.set("memcache.server_exec_us", "", perUS(a.exec, a.timed))
	rep.set("memcache.server_flush_us", "", perUS(a.flush, a.timed))
	rep.note("traced window: %d multi-gets, %d round trips, %d with server timings", a.reqs, a.rtts, a.timed)
}

// traceLive is a --trace 1 run of a live mix. It measures a window
// with tracing off (tier counters, runtime), a window through a
// second client with every request traced (queue/wire/server split,
// tracing overhead), then replays the first window's multi-gets
// through each layer's public API with a span around every call.
func traceLive(rep *report, name string, spec liveSpec, seed int64, d time.Duration, outDir string) (err error) {
	lb, err := setupLive(spec, seed, 1)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, lb.t.close()) }()
	half := d / 2

	lb.pre = newPrefix(int(lb.next.Load()))
	w0 := lb.window(half, 0, nil)
	lb.checkWindow(rep, w0)
	gets, sets := float64(len(w0.getLat)), float64(len(w0.setLat))
	n := gets + sets
	rep.set("rnb.round2_per_req", "", float64(w0.round2)/gets)
	rep.set("rnb.writebacks_per_req", "", (float64(w0.srv.cmdSet)-sets*replicas)/gets)
	rep.set("rnb.failed_txns_per_req", "", float64(w0.failedTxns)/gets)
	rep.set("rnb.set_p50_us", "", percentileUS(w0.setLat, 0.5))
	rep.set("memcache.server_txns_per_req", "", float64(w0.srv.txns)/n)
	rep.set("memcache.get_hit_ratio", "", float64(w0.srv.hits)/float64(w0.srv.hits+w0.srv.misses))
	rep.set("store.evictions_per_req", "", float64(w0.srv.evictions)/n)
	rep.set("store.bytes_per_user_byte", "", float64(w0.srv.bytes)/float64(len(lb.s.keys)*valueSize))
	if g := lb.t.client.PoolGauges(); g != nil {
		rep.set("memcache.pipeline_high_water", "", float64(g.PipelineHighWater.Load()))
	}
	runtimeMetrics(rep, w0.requests(), w0.wall, w0.res)
	p50 := percentileUS(w0.getLat, 0.5)

	agg := &traceAgg{}
	traced, err := rnb.NewClient(lb.t.addrs, append(slices.Clone(spec.opts),
		rnb.WithTracing(rnb.TraceConfig{SampleEvery: 1, ReservoirCapacity: -1, OnFinish: agg.observe}))...)
	if err != nil {
		return fmt.Errorf("traced client: %w", err)
	}
	lb.tg = traced
	w1 := lb.window(half, 0, nil)
	lb.tg = lb.t.client
	if err := traced.Close(); err != nil {
		return fmt.Errorf("traced client: %w", err)
	}
	rep.Attempted += w1.requests()
	rep.Failed += w1.failed
	if w1.failed > 0 {
		rep.check(fmt.Errorf("traced window: %d of %d operations failed", w1.failed, w1.requests()))
	}
	agg.report(rep)
	rep.set("obs.trace_overhead_pct", "", (percentileUS(w1.getLat, 0.5)/p50-1)*100)

	rep.check(lb.checkFidelity())
	rec := newRecorder(replayReqs * 64)
	reqs := lb.replayRequests()
	if err := lb.replay(rep, reqs, rec); err != nil {
		return err
	}
	if err := lb.replayCluster(rep, reqs, rec); err != nil {
		return err
	}
	if err := lb.loadgen(rep); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	return writeSpans(rep, path, append(agg.kept, rec.obsSpans(keptReplays)...))
}

// replayRequests returns the stream indices of the run's first
// replayReqs multi-gets.
func (lb *liveBench) replayRequests() []int {
	var reqs []int
	for m, t := range lb.pre.txns {
		if lb.pre.filled[m] && t >= 0 && len(reqs) < replayReqs {
			reqs = append(reqs, lb.pre.first+m)
		}
	}
	return reqs
}

// replayCluster feeds the same multi-gets, each key's index standing
// for its item id, through the cluster simulator shaped like the tier:
// as many servers, r, and the stores' budget as a multiple of one copy
// of the data. It measures the simulator's request engine on this
// mix's traffic, with a span around every Cluster.Do.
func (lb *liveBench) replayCluster(rep *report, reqs []int, rec *recorder) error {
	memory := 0.0 // unlimited: every replica resident, as on the warm tiers
	if lb.spec.overbooked {
		memory = overbookFactor
	}
	c, err := cluster.New(cluster.Config{
		Servers: tierServers, Items: len(lb.s.keys), Replicas: replicas,
		MemoryFactor: memory, Planner: clientPlannerOptions,
	})
	if err != nil {
		return err
	}
	items := make([]uint64, keysPerGet)
	var planNS, doNS int64
	var round2, bottleneck int
	for _, i := range reqs {
		for j, k := range lb.s.request(i) {
			items[j] = uint64(k)
		}
		t0 := time.Now()
		if _, err := c.Planner().BuildAvoiding(items, keysPerGet, nil); err != nil {
			return err
		}
		t1 := time.Now()
		res, err := c.Do(workload.Request{Items: items, Target: keysPerGet})
		t2 := time.Now()
		rec.add("cluster.Do", 0, uint64(i), t1, t2)
		if err != nil {
			return fmt.Errorf("cluster replay: %w", err)
		}
		if res.Obtained != keysPerGet {
			rep.check(fmt.Errorf("cluster replay of request %d obtained %d of %d items", i, res.Obtained, keysPerGet))
		}
		planNS += t1.Sub(t0).Nanoseconds()
		doNS += t2.Sub(t1).Nanoseconds()
		round2 += res.Round2
		bottleneck += res.Bottleneck
	}
	n := float64(len(reqs))
	rep.set("cluster.plan_share", "", float64(planNS)/float64(doNS))
	rep.set("cluster.round2_per_req", "", float64(round2)/n)
	rep.set("cluster.bottleneck_keys", "", float64(bottleneck)/n)
	return nil
}

// replayTxn is one planned transaction of a replayed request, encoded
// for the raw socket before any timing.
type replayTxn struct {
	server int
	keys   []string
	raw    []byte
}

// replay feeds the run's first replayReqs multi-gets through the
// hash ring, the planner, the memcache transport, a raw socket to the
// same server, and a standalone store, recording a span per call; then
// counts each layer's allocations in separate untimed passes.
func (lb *liveBench) replay(rep *report, reqs []int, rec *recorder) error {
	planner, plc, err := clientPlanner(lb.t.addrs)
	if err != nil {
		return err
	}
	binaryWire := lb.spec.binary
	conns := make([]memcache.Conn, len(lb.t.addrs))
	raws := make([]*rawConn, len(lb.t.addrs))
	defer func() {
		for i := range conns {
			if conns[i] != nil {
				conns[i].Close()
			}
			if raws[i] != nil {
				raws[i].c.Close()
			}
		}
	}()
	for i, addr := range lb.t.addrs {
		if binaryWire {
			conns[i], err = memcache.NewPool(addr, 5*time.Second, memcache.PoolConfig{Size: 2, Binary: true})
		} else {
			conns[i], err = memcache.Dial(addr, 5*time.Second)
		}
		if err != nil {
			return fmt.Errorf("replay dial %s: %w", addr, err)
		}
		if raws[i], err = dialRaw(addr, binaryWire); err != nil {
			return err
		}
	}
	store, err := lb.storeLikeServer0(plc)
	if err != nil {
		return err
	}

	var (
		ids                      []uint64
		buf                      []int
		txns                     []replayTxn
		planTxns, hitch, maxKeys int
		storeKeys                int
	)
	for _, i := range reqs {
		req := lb.s.request(i)
		ids = lb.s.requestIDs(req, ids)
		keyOf := make(map[uint64]int32, len(req))
		for j, id := range ids {
			keyOf[id] = req[j]
		}
		root := rec.id()
		r := uint64(i)
		t0 := time.Now()
		for _, id := range ids {
			buf = plc.Replicas(id, buf[:0])
		}
		rec.add("hashring.Replicas", root, r, t0, time.Now())
		c0 := time.Now()
		plan, err := planner.BuildAvoiding(ids, 0, never)
		rec.add("core.BuildAvoiding", root, r, c0, time.Now())
		if err != nil {
			return err
		}
		planTxns += len(plan.Transactions)
		biggest := 0
		for _, txn := range plan.Transactions {
			hitch += len(txn.Hitchhikers)
			biggest = max(biggest, txn.Size())
			rt := replayTxn{server: txn.Server}
			for _, id := range append(slices.Clone(txn.Primary), txn.Hitchhikers...) {
				rt.keys = append(rt.keys, lb.s.keys[keyOf[id]])
			}
			rt.raw = encodeGet(rt.keys, binaryWire)
			txns = append(txns, rt)

			g0 := time.Now()
			_, err := conns[txn.Server].GetMulti(rt.keys)
			rec.add("memcache.Conn.GetMulti", root, r, g0, time.Now())
			if err != nil {
				return fmt.Errorf("replay multi-get: %w", err)
			}
			s0 := time.Now()
			err = raws[txn.Server].roundTrip(rt.raw)
			rec.add("memcache.raw", root, r, s0, time.Now())
			if err != nil {
				return err
			}
			if txn.Server != 0 {
				continue
			}
			storeKeys += len(rt.keys)
			puts := make([]*memcache.Item, len(rt.keys))
			for j, k := range rt.keys {
				puts[j] = &memcache.Item{Key: k, Value: lb.o.latest[lb.o.index[k]]}
			}
			k0 := time.Now()
			for _, k := range rt.keys {
				_, _ = store.Get(k) // a miss is a valid outcome on an overbooked store
			}
			rec.add("store.Get", root, r, k0, time.Now())
			k1 := time.Now()
			for _, it := range puts {
				_ = store.Set(it) // an overbooked store may decline; timing covers either outcome
			}
			rec.add("store.Set", root, r, k1, time.Now())
		}
		maxKeys += biggest
		rec.put(root, "replay.request", 0, r, t0, time.Now())
	}
	nr := float64(len(reqs))
	times := rec.layerTimes()
	rep.set("hashring.replicas_ns", "", meanNS(times, "hashring.Replicas", keysPerGet))
	rep.set("core.build_ns", "", meanNS(times, "core.BuildAvoiding", 1))
	rep.set("core.txns_per_req", "", float64(planTxns)/nr)
	rep.set("core.hitchhikers_per_req", "", float64(hitch)/nr)
	rep.set("core.max_keys_per_server", "", float64(maxKeys)/nr)
	rep.set("memcache.txn_us", "", meanNS(times, "memcache.Conn.GetMulti", 1e3))
	rep.set("memcache.server_raw_txn_us", "", meanNS(times, "memcache.raw", 1e3))
	if t := times["store.Get"]; t != nil && storeKeys > 0 {
		rep.set("store.get_ns", "", t[0]/float64(storeKeys))
		rep.set("store.set_ns", "", times["store.Set"][0]/float64(storeKeys))
	}
	if t := times["replay.request"]; t != nil {
		rep.note("replay: %d multi-gets, %d transactions; benchmark's own share of a replayed request %.2f us",
			len(reqs), len(txns), t[1]/t[2]/1e3)
	}

	// Allocation passes: whole-process heap allocations while one layer
	// runs alone. The raw replay allocates nothing on its client side,
	// so its count is the server's; the transport's is the difference.
	built, err := mallocsDuring(func() error {
		for _, i := range reqs {
			ids = lb.s.requestIDs(lb.s.request(i), ids)
			if _, err := planner.BuildAvoiding(ids, 0, never); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("core.build_allocs", "", float64(built)/nr)
	viaConn, err := mallocsDuring(func() error {
		for _, t := range txns {
			if _, err := conns[t.server].GetMulti(t.keys); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	viaRaw, err := mallocsDuring(func() error {
		for _, t := range txns {
			if err := raws[t.server].roundTrip(t.raw); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	nt := float64(len(txns))
	rep.set("memcache.server_allocs_per_txn", "", float64(viaRaw)/nt)
	rep.set("memcache.client_allocs_per_txn", "", (float64(viaConn)-float64(viaRaw))/nt)
	return nil
}

// storeLikeServer0 builds a standalone Store with server 0's capacity
// and fills it with server 0's share of the keys, in preload order,
// the distinguished copies pinned.
func (lb *liveBench) storeLikeServer0(plc hashring.Placement) (*memcache.Store, error) {
	store := memcache.NewStore(lb.spec.perServerBytes(lb.s))
	var ids []uint64
	var buf []int
	for k, key := range lb.s.keys {
		ids = lb.s.requestIDs([]int32{int32(k)}, ids)
		buf = plc.Replicas(ids[0], buf[:0])
		if !slices.Contains(buf, 0) {
			continue
		}
		err := store.SetPinned(&memcache.Item{Key: key, Value: lb.s.initial[k]}, buf[0] == 0)
		if err != nil && (buf[0] == 0 || !errors.Is(err, memcache.ErrNotStored)) {
			return nil, fmt.Errorf("fill store: %w", err)
		}
	}
	return store, nil
}

// rawConn speaks the memcache wire directly: it writes pre-encoded
// request bytes and reads the reply to its end marker without decoding
// values, so a round trip costs the client nothing but the syscalls.
type rawConn struct {
	c      net.Conn
	br     *bufio.Reader
	binary bool
	hdr    [24]byte
}

func dialRaw(addr string, binaryWire bool) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("raw dial %s: %w", addr, err)
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 64<<10), binary: binaryWire}, nil
}

var textEnd = []byte("END\r\n")

const (
	binGetKQ = 0x0d
	binNoop  = 0x0a
)

// encodeGet encodes one multi-get: a text "get" line, or binary GETKQ
// frames closed by a NOOP.
func encodeGet(keys []string, binaryWire bool) []byte {
	var b []byte
	if !binaryWire {
		b = append(b, "get"...)
		for _, k := range keys {
			b = append(append(b, ' '), k...)
		}
		return append(b, "\r\n"...)
	}
	frame := func(op byte, key string, opaque uint32) {
		var h [24]byte
		h[0], h[1] = 0x80, op
		binary.BigEndian.PutUint16(h[2:4], uint16(len(key)))
		binary.BigEndian.PutUint32(h[8:12], uint32(len(key)))
		binary.BigEndian.PutUint32(h[12:16], opaque)
		b = append(append(b, h[:]...), key...)
	}
	for i, k := range keys {
		frame(binGetKQ, k, uint32(i))
	}
	frame(binNoop, "", uint32(len(keys)))
	return b
}

func (r *rawConn) roundTrip(req []byte) error {
	if _, err := r.c.Write(req); err != nil {
		return fmt.Errorf("raw write: %w", err)
	}
	for {
		if !r.binary {
			line, err := r.br.ReadSlice('\n')
			if err != nil {
				return fmt.Errorf("raw read: %w", err)
			}
			if bytes.Equal(line, textEnd) {
				return nil
			}
			continue
		}
		if _, err := io.ReadFull(r.br, r.hdr[:]); err != nil {
			return fmt.Errorf("raw read: %w", err)
		}
		if _, err := r.br.Discard(int(binary.BigEndian.Uint32(r.hdr[8:12]))); err != nil {
			return fmt.Errorf("raw read: %w", err)
		}
		if r.hdr[1] == binNoop {
			return nil
		}
	}
}

// stubTarget answers every multi-get from one map holding every key at
// its latest value, so driving it measures the load generator alone.
type stubTarget struct{ all map[string]*rnb.Item }

func (st stubTarget) GetMulti([]string) (map[string]*rnb.Item, rnb.Stats, error) {
	return st.all, rnb.Stats{}, nil
}

func (st stubTarget) Set(it *rnb.Item) error { st.all[it.Key] = it; return nil }

// loadgen drives the same caller loop against stubTarget.
func (lb *liveBench) loadgen(rep *report) error {
	stub := stubTarget{all: make(map[string]*rnb.Item, len(lb.s.keys))}
	o := newOracle(lb.s)
	copy(o.latest, lb.o.latest)
	for k, key := range lb.s.keys {
		stub.all[key] = &rnb.Item{Key: key, Value: o.latest[k]}
	}
	self := &liveBench{spec: lb.spec, s: lb.s, o: o, tg: stub}
	w := self.window(0, loadgenReqs, nil)
	if w.failed > 0 {
		return fmt.Errorf("load generator self-run: %d oracle failures against the stub", w.failed)
	}
	loadgenMetrics(rep, w.requests(), lb.spec.callers, w.wall, w.res)
	return nil
}

func loadgenMetrics(rep *report, requests, callers int, wall time.Duration, res resources) {
	rep.set("loadgen.ns_per_req", "", float64(wall.Nanoseconds())*float64(callers)/float64(requests))
	rep.set("loadgen.allocs_per_req", "", float64(res.mallocs)/float64(requests))
}
