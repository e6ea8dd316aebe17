package memcache

import (
	"bufio"
	"net"
	"sync"
	"time"

	"rnb/internal/obs"
)

// Client is a memcached text-protocol client for a single server. It
// multiplexes all calls over one connection guarded by a mutex —
// adequate for benchmarking and simple tools, where each load-generator
// goroutine owns its own Client. High-fan-out callers (the RnB client
// with many goroutines per server) should use Pool, the pooled,
// pipelined transport built on the same request codec.
type Client struct {
	addr    string
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// Reconnect policy: redialAttempts extra dial attempts with
	// exponential backoff starting at redialBackoff (see SetRedial).
	redialAttempts int
	redialBackoff  time.Duration

	// rttObs, when set, receives the wall time of every round trip —
	// failures and timeouts included, since they are the latency tail.
	rttObs func(time.Duration)

	// Transactions counts protocol round-trips issued — the quantity
	// RnB minimizes.
	transactions uint64

	// tracing enables wire-level trace propagation; traceOK caches the
	// handshake outcome (0 unknown, 1 negotiated, 2 plain server). With
	// tracing off — the default — the wire carries zero extra bytes.
	tracing bool
	traceOK int8
}

// Dial connects to a server at addr. timeout <= 0 means no I/O
// deadline.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	c := &Client{addr: addr, timeout: timeout}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// SetRedial configures reconnect-with-backoff: when (re)establishing
// the connection fails, up to attempts additional dials are made with
// exponential backoff starting at backoff (default 10ms when <= 0).
// The default of 0 attempts keeps failures fast, which is what a
// circuit-breaking caller wants; daemons that prefer riding out brief
// listener restarts can opt in.
func (c *Client) SetRedial(attempts int, backoff time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.redialAttempts = attempts
	c.redialBackoff = backoff
}

// SetRTTObserver installs a per-round-trip latency observer (nil
// disables). Every round trip is stamped, replays and failed trips
// included: errors and timeouts are exactly the latency tail an
// operator wants visible.
func (c *Client) SetRTTObserver(obs func(time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttObs = obs
}

func (c *Client) connect() error {
	backoff := c.redialBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.conn = conn
			c.r = bufio.NewReaderSize(conn, 64<<10)
			c.w = bufio.NewWriterSize(conn, 64<<10)
			return nil
		}
		if attempt >= c.redialAttempts {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Addr returns the server address.
func (c *Client) Addr() string { return c.addr }

// Transactions returns the number of round-trips issued so far.
func (c *Client) Transactions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.transactions
}

// armDeadline (re)arms the per-round-trip I/O deadline. It runs at the
// start of EVERY round trip — arming when a timeout is configured,
// clearing otherwise — so a pooled connection can never carry a stale
// deadline from an earlier operation into a later one.
func (c *Client) armDeadline() {
	if c.conn == nil {
		return
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

// clearDeadline removes the deadline after a completed round trip, so
// a long-idle pooled connection is not sitting armed.
func (c *Client) clearDeadline() {
	if c.conn != nil {
		c.conn.SetDeadline(time.Time{})
	}
}

// roundTrip runs fn under the connection lock, counting a transaction.
func (c *Client) roundTrip(fn func() error) error {
	return c.do(fn, false)
}

// roundTripIdempotent is roundTrip with one transparent retry: if the
// operation fails on a *reused* pooled connection (stale after a
// server restart or an idle reset), the client reconnects and replays
// it once. Only read-only operations go through here — replaying a
// mutation could apply it twice.
func (c *Client) roundTripIdempotent(fn func() error) error {
	return c.do(fn, true)
}

func (c *Client) do(fn func() error, idempotent bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doLocked(fn, idempotent)
}

func (c *Client) doLocked(fn func() error, idempotent bool) error {
	fresh := false
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return err
		}
		fresh = true
	}
	c.armDeadline()
	c.transactions++
	start := time.Now()
	err := fn()
	if c.rttObs != nil {
		c.rttObs(time.Since(start))
	}
	if !isConnFatal(err) {
		// Success, or a protocol-level outcome (miss, CAS conflict,
		// declined store, status-line error): the reply was consumed in
		// full and the connection stays in sync.
		c.clearDeadline()
		return err
	}
	// Connection state is unknown after an I/O error; drop it.
	c.conn.Close()
	c.conn = nil
	if !idempotent || fresh {
		return err
	}
	// The pooled connection went stale between round trips; a fresh
	// connection gets one replay.
	if cerr := c.connect(); cerr != nil {
		return err
	}
	c.armDeadline()
	c.transactions++
	start = time.Now()
	err2 := fn()
	if c.rttObs != nil {
		c.rttObs(time.Since(start))
	}
	if isConnFatal(err2) {
		c.conn.Close()
		c.conn = nil
		return err2
	}
	c.clearDeadline()
	return err2
}

// Get fetches a single key.
func (c *Client) Get(key string) (*Item, error) {
	items, err := c.GetMulti([]string{key})
	if err != nil {
		return nil, err
	}
	it, ok := items[key]
	if !ok {
		return nil, ErrCacheMiss
	}
	return it, nil
}

// GetMulti fetches any number of keys in ONE transaction (a memcached
// multi-get) and returns the found items. Missing keys are simply
// absent from the result.
func (c *Client) GetMulti(keys []string) (map[string]*Item, error) {
	return c.getMulti("get", keys)
}

// GetsMulti is GetMulti with CAS tokens populated.
func (c *Client) GetsMulti(keys []string) (map[string]*Item, error) {
	return c.getMulti("gets", keys)
}

func (c *Client) getMulti(verb string, keys []string) (map[string]*Item, error) {
	if len(keys) == 0 {
		return map[string]*Item{}, nil
	}
	for _, k := range keys {
		if !validKey(k) {
			return nil, ErrBadKey
		}
	}
	out := make(map[string]*Item, len(keys))
	err := c.roundTripIdempotent(func() error {
		if err := writeGetCmd(c.w, verb, keys); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		return readValuesInto(c.r, verb == "gets", keys, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SetTracing enables (or disables) wire-level trace propagation. The
// first traced round trip probes the server's version banner; only a
// server announcing rnb-memcache support ever sees a trace prefix, so
// plain memcached keeps receiving stock protocol bytes.
func (c *Client) SetTracing(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tracing == on {
		return
	}
	c.tracing = on
	c.traceOK = 0
}

// probeLocked resolves the tracing handshake with one version round
// trip. Called with the mutex held; a failure leaves the outcome
// unknown so a later traced request retries.
func (c *Client) probeLocked() {
	var banner string
	err := c.doLocked(func() error {
		if err := writeVersionCmd(c.w); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		var rerr error
		banner, rerr = readVersionReply(c.r)
		return rerr
	}, true)
	if err != nil {
		return
	}
	if bannerSupportsTracing(banner) {
		c.traceOK = 1
	} else {
		c.traceOK = 2
	}
}

// TracedGetMulti is GetMulti carrying a distributed-trace context. It
// returns the items, the client-side queue wait (time spent blocked on
// the connection mutex, in nanoseconds), and the server's phase
// timings — nil when the server did not negotiate tracing, in which
// case the request degraded to a stock multi-get.
func (c *Client) TracedGetMulti(tc obs.TraceContext, keys []string) (map[string]*Item, int64, *obs.ServerTimings, error) {
	if len(keys) == 0 {
		return map[string]*Item{}, 0, nil, nil
	}
	for _, k := range keys {
		if !validKey(k) {
			return nil, 0, nil, ErrBadKey
		}
	}
	lockStart := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	queueNS := time.Since(lockStart).Nanoseconds()
	if c.tracing && c.traceOK == 0 {
		c.probeLocked()
	}
	traced := c.tracing && c.traceOK == 1 && tc.Valid()
	out := make(map[string]*Item, len(keys))
	var st *obs.ServerTimings
	err := c.doLocked(func() error {
		if traced {
			if err := writeTraceCmd(c.w, tc); err != nil {
				return err
			}
		}
		if err := writeGetCmd(c.w, "get", keys); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		if err := readValuesInto(c.r, false, keys, out); err != nil {
			return err
		}
		if traced {
			st = new(obs.ServerTimings)
			if err := readTraceReply(c.r, st); err != nil {
				st = nil
				return err
			}
		}
		return nil
	}, true)
	if err != nil {
		return nil, queueNS, nil, err
	}
	return out, queueNS, st, nil
}

// Set stores an item unconditionally.
func (c *Client) Set(it *Item) error { return c.store("set", it, 0) }

// SetPinned stores an item exempt from LRU eviction, via this server's
// RnB "setp" protocol extension. Distinguished copies are stored this
// way so they can never miss (paper §III-C-1). Not supported by stock
// memcached.
func (c *Client) SetPinned(it *Item) error { return c.store("setp", it, 0) }

// Add stores an item only if absent.
func (c *Client) Add(it *Item) error { return c.store("add", it, 0) }

// Replace stores an item only if present.
func (c *Client) Replace(it *Item) error { return c.store("replace", it, 0) }

// CompareAndSwap stores an item only if its CAS token still matches.
func (c *Client) CompareAndSwap(it *Item) error { return c.store("cas", it, it.CAS) }

// Append concatenates data after an existing value.
func (c *Client) Append(key string, data []byte) error {
	return c.store("append", &Item{Key: key, Value: data}, 0)
}

// Prepend concatenates data before an existing value.
func (c *Client) Prepend(key string, data []byte) error {
	return c.store("prepend", &Item{Key: key, Value: data}, 0)
}

// Incr adds delta to a decimal value, returning the new value.
func (c *Client) Incr(key string, delta uint64) (uint64, error) {
	return c.incrDecr("incr", key, delta)
}

// Decr subtracts delta from a decimal value (clamped at zero),
// returning the new value.
func (c *Client) Decr(key string, delta uint64) (uint64, error) {
	return c.incrDecr("decr", key, delta)
}

func (c *Client) incrDecr(verb, key string, delta uint64) (uint64, error) {
	if !validKey(key) {
		return 0, ErrBadKey
	}
	var out uint64
	err := c.roundTrip(func() error {
		if err := writeIncrDecrCmd(c.w, verb, key, delta); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		var rerr error
		out, rerr = readIncrDecrReply(c.r, verb)
		return rerr
	})
	return out, err
}

func (c *Client) store(verb string, it *Item, cas uint64) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	return c.roundTrip(func() error {
		if err := writeStoreCmd(c.w, verb, it, cas); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		return readStoreReply(c.r)
	})
}

// Touch updates a key's expiration time.
func (c *Client) Touch(key string, exp int32) error {
	if !validKey(key) {
		return ErrBadKey
	}
	return c.roundTrip(func() error {
		if err := writeTouchCmd(c.w, key, exp); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		return readTouchReply(c.r)
	})
}

// Delete removes a key.
func (c *Client) Delete(key string) error {
	if !validKey(key) {
		return ErrBadKey
	}
	return c.roundTrip(func() error {
		if err := writeDeleteCmd(c.w, key); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		return readDeleteReply(c.r)
	})
}

// FlushAll wipes the server.
func (c *Client) FlushAll() error {
	return c.roundTrip(func() error {
		if err := writeFlushAllCmd(c.w); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		return readFlushAllReply(c.r)
	})
}

// Version returns the server version banner.
func (c *Client) Version() (string, error) {
	var banner string
	err := c.roundTripIdempotent(func() error {
		if err := writeVersionCmd(c.w); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		var rerr error
		banner, rerr = readVersionReply(c.r)
		return rerr
	})
	return banner, err
}

// Stats fetches the server's stats map.
func (c *Client) Stats() (map[string]string, error) {
	out := map[string]string{}
	err := c.roundTripIdempotent(func() error {
		if err := writeStatsCmd(c.w); err != nil {
			return err
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
		return readStatsInto(c.r, out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
