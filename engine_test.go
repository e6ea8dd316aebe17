package rnb

import (
	"fmt"
	"net"
	"testing"

	"rnb/internal/cluster"
	"rnb/internal/core"
	"rnb/internal/memcache"
	"rnb/internal/workload"
)

// The simulator (internal/cluster) and the live client run one request
// engine, core.Execute. These tests replay one seeded request stream
// through both over the same replica placement and require the same
// protocol decisions, request by request.

const (
	diffServers  = 4
	diffReplicas = 3
	diffItems    = 300
	diffPerReq   = 12
	diffRequests = 400
)

func diffKey(i uint64) string { return fmt.Sprintf("item:%05d", i) }

// densePlacement maps dense simulator item id i onto the live client's
// replicas of diffKey(i), so both engines plan over one layout.
type densePlacement [][]int

func (p densePlacement) Replicas(item uint64, buf []int) []int { return append(buf[:0], p[item]...) }
func (p densePlacement) NumServers() int                       { return diffServers }
func (p densePlacement) NumReplicas() int                      { return diffReplicas }

// newDiffPair builds a live tier of unlimited-memory servers and a
// simulator over the live client's placement. cold leaves only the
// distinguished copies resident on both sides; otherwise every logical
// replica is.
func newDiffPair(t *testing.T, cold bool) (*Client, []*memcache.Server, *cluster.Cluster) {
	t.Helper()
	cl, servers := newTestClient(t, diffServers, WithReplicas(diffReplicas))
	placement := make(densePlacement, diffItems)
	for i := range placement {
		key := diffKey(uint64(i))
		placement[i] = cl.replicaServers(key)
		it := &Item{Key: key, Value: []byte("v-" + key)}
		if cold {
			if err := servers[placement[i][0]].Store().SetPinned(it, true); err != nil {
				t.Fatal(err)
			}
		} else if err := cl.Set(it); err != nil {
			t.Fatal(err)
		}
	}
	sim, err := cluster.New(cluster.Config{
		Servers: diffServers, Items: diffItems, Replicas: diffReplicas,
		Placement:       placement,
		Planner:         core.Options{Hitchhike: true, DistinguishedSingles: true},
		SkipPrepopulate: cold,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl, servers, sim
}

// storeCommands is the tier-wide count of storage commands the servers
// have seen — here, the live client's write-back Adds.
func storeCommands(servers []*memcache.Server) uint64 {
	var n uint64
	for _, srv := range servers {
		n += srv.Stats().CmdSet.Load()
	}
	return n
}

// replay drives the seeded stream through both engines, calling check
// with each request's live stats, live write-back count and simulator
// outcome.
func replay(t *testing.T, cl *Client, servers []*memcache.Server, sim *cluster.Cluster,
	check func(i int, live Stats, liveWB int, res cluster.RequestResult)) {
	t.Helper()
	gen := workload.NewUniformGenerator(diffItems, diffPerReq, 12)
	for i := 0; i < diffRequests; i++ {
		req := gen.Next()
		keys := make([]string, len(req.Items))
		for j, id := range req.Items {
			keys[j] = diffKey(id)
		}
		sets := storeCommands(servers)
		items, st, err := cl.GetMulti(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(keys) {
			t.Fatalf("request %d: live client got %d/%d items", i, len(items), len(keys))
		}
		res, err := sim.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		check(i, st, int(storeCommands(servers)-sets), res)
	}
}

// TestEngineDifferentialWarm: with every replica resident, the live
// client and the simulator make the same plans — the same round-1 and
// total transaction counts on every request.
func TestEngineDifferentialWarm(t *testing.T) {
	cl, servers, sim := newDiffPair(t, false)
	replay(t, cl, servers, sim, func(i int, live Stats, _ int, res cluster.RequestResult) {
		liveRound1 := live.Transactions - live.Round2 - live.Retries
		if liveRound1 != res.Transactions-res.Round2 || live.Transactions != res.Transactions {
			t.Fatalf("request %d: live %d transactions (%d round 1), simulator %d (%d round 1)",
				i, live.Transactions, liveRound1, res.Transactions, res.Transactions-res.Round2)
		}
	})
}

// TestEngineDifferentialCold: starting from distinguished copies only,
// round 2 and write-back do all the work, and the two sides must agree
// on both, request by request — one write-back policy, not two.
func TestEngineDifferentialCold(t *testing.T) {
	cl, servers, sim := newDiffPair(t, true)
	var round2, writeBacks int
	replay(t, cl, servers, sim, func(i int, live Stats, liveWB int, res cluster.RequestResult) {
		if live.Round2 != res.Round2 || liveWB != res.WriteBacks || live.Transactions != res.Transactions {
			t.Fatalf("request %d: live round2=%d write-backs=%d txns=%d, simulator round2=%d write-backs=%d txns=%d",
				i, live.Round2, liveWB, live.Transactions, res.Round2, res.WriteBacks, res.Transactions)
		}
		round2 += res.Round2
		writeBacks += res.WriteBacks
	})
	if round2 == 0 || writeBacks == 0 {
		t.Fatalf("cold stream exercised round2=%d write-backs=%d; differential proves nothing", round2, writeBacks)
	}
}

// TestWriteBackOrderDeterministic: write-backs go out in plan order, so
// two fresh tiers on the same addresses, driven by the same seeded
// stream under memory pressure (stores hold 1.5 of the 3 logical
// copies), evict the same items, spend the same transactions on every
// request and end with identical contents.
func TestWriteBackOrderDeterministic(t *testing.T) {
	addrs := make([]string, diffServers)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	type result struct {
		txns      []int
		evictions uint64
		contents  [][]string
	}
	run := func() result {
		servers := make([]*memcache.Server, len(addrs))
		for i, addr := range addrs {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			// Item cost is key + value + 56 bytes of entry overhead.
			servers[i] = memcache.NewServer(memcache.NewStore(int64(1.5 * diffItems * (10 + 12 + 56) / diffServers)))
			go servers[i].Serve(ln)
		}
		defer func() {
			for _, srv := range servers {
				srv.Close()
			}
		}()
		cl, err := NewClient(addrs, WithReplicas(diffReplicas))
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := uint64(0); i < diffItems; i++ {
			if err := cl.Set(&Item{Key: diffKey(i), Value: []byte("v-" + diffKey(i))}); err != nil {
				t.Fatal(err)
			}
		}
		var res result
		gen := workload.NewUniformGenerator(diffItems, 16, 7)
		for i := 0; i < 1500; i++ {
			req := gen.Next()
			keys := make([]string, len(req.Items))
			for j, id := range req.Items {
				keys[j] = diffKey(id)
			}
			_, st, err := cl.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			res.txns = append(res.txns, st.Transactions)
		}
		res.contents = make([][]string, len(servers))
		for s, srv := range servers {
			res.evictions += srv.Store().Evictions()
			for i := uint64(0); i < diffItems; i++ {
				if _, err := srv.Store().Peek(diffKey(i)); err == nil {
					res.contents[s] = append(res.contents[s], diffKey(i))
				}
			}
		}
		if res.evictions == 0 {
			t.Fatal("premise: the stream caused no evictions")
		}
		return res
	}
	first, second := run(), run()
	for i := range first.txns {
		if first.txns[i] != second.txns[i] {
			t.Fatalf("request %d: %d transactions, then %d in an identical run", i, first.txns[i], second.txns[i])
		}
	}
	if first.evictions != second.evictions {
		t.Fatalf("%d evictions, then %d in an identical run", first.evictions, second.evictions)
	}
	for s := range first.contents {
		if fmt.Sprint(first.contents[s]) != fmt.Sprint(second.contents[s]) {
			t.Fatalf("server %d contents differ between identical runs:\n%v\n%v", s, first.contents[s], second.contents[s])
		}
	}
}
