package main

import (
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"rnb"
	"rnb/internal/memcache"
)

// tierAddrs derives the servers' listen addresses from the seed: one
// distinct loopback IP each in 127.0.0.0/8, one shared port. The ring
// hashes "ip:port", so fixed addresses make the replica layout — and
// with it tpr — repeat exactly for a seed; ephemeral ports would not.
func tierAddrs(seed int64, n int) []string {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	h ^= h >> 29
	a, b := 1+h%250, 1+(h>>8)%250
	port := 20000 + (h>>16)%20000
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("127.%d.%d.%d:%d", a, b, 10+i, port)
	}
	return addrs
}

// tier is an in-process RnB tier: memcache servers on fixed loopback
// addresses plus one rnb.Client over them.
type tier struct {
	addrs   []string
	servers []*memcache.Server
	client  *rnb.Client
	serveWG sync.WaitGroup
	serveMu sync.Mutex
	errs    []error
}

// startTier binds every server at its fixed address (a failed bind is
// an error, never a fallback to another port), starts serving, and
// dials a client with opts. perServer is each store's byte capacity
// (<= 0: unbounded).
func startTier(addrs []string, perServer int64, opts []rnb.Option) (*tier, error) {
	t := &tier{addrs: addrs}
	for _, addr := range addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("bind %s: %w", addr, err)
		}
		srv := memcache.NewServer(memcache.NewStore(perServer))
		t.servers = append(t.servers, srv)
		t.serveWG.Add(1)
		go func() {
			defer t.serveWG.Done()
			if err := srv.Serve(ln); err != nil {
				t.serveMu.Lock()
				t.errs = append(t.errs, err)
				t.serveMu.Unlock()
			}
		}()
	}
	c, err := rnb.NewClient(addrs, opts...)
	if err != nil {
		t.close()
		return nil, fmt.Errorf("client: %w", err)
	}
	t.client = c
	return t, nil
}

// preload writes every key's initial value through Client.Set, in key
// order, from one goroutine, so the stores' LRU state repeats exactly.
func (t *tier) preload(s *stream) error {
	for k, key := range s.keys {
		if err := t.client.Set(&rnb.Item{Key: key, Value: s.initial[k]}); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// close stops the client and every server and waits for them.
func (t *tier) close() error {
	var errs []error
	if t.client != nil {
		errs = append(errs, t.client.Close())
	}
	for _, srv := range t.servers {
		errs = append(errs, srv.Close())
	}
	t.serveWG.Wait()
	errs = append(errs, t.errs...)
	return errors.Join(errs...)
}

// serverTotals sums the tier's server and store counters.
type serverTotals struct {
	txns, cmdSet, hits, misses, evictions uint64
	bytes                                 int64
}

func (t *tier) totals() serverTotals {
	var st serverTotals
	for _, srv := range t.servers {
		s := srv.Stats()
		st.txns += s.Transactions.Load()
		st.cmdSet += s.CmdSet.Load()
		st.hits += s.GetHits.Load()
		st.misses += s.GetMisses.Load()
		st.evictions += srv.Store().Evictions()
		st.bytes += srv.Store().Bytes()
	}
	return st
}

// timedSetup runs build n times, tearing down all but the last result,
// and returns the last result with the median build time.
func timedSetup(n int, build func() (*liveBench, error), teardown func(*liveBench) error) (*liveBench, float64, error) {
	var last *liveBench
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			if err := teardown(v); err != nil {
				return last, 0, fmt.Errorf("teardown: %w", err)
			}
			// Return the torn-down build's memory to the OS, so the
			// resident size measured later is the live build's alone.
			debug.FreeOSMemory()
			continue
		}
		last = v
	}
	return last, median(secs), nil
}
