package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer spins up a server on a random loopback port and returns a
// connected client.
func startServer(t *testing.T, capacity int64) (*Server, *Client) {
	t.Helper()
	srv := NewServer(NewStore(capacity))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestEndToEndSetGet(t *testing.T) {
	_, cl := startServer(t, 0)
	if err := cl.Set(&Item{Key: "hello", Value: []byte("world"), Flags: 42}); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("hello")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "world" || it.Flags != 42 {
		t.Fatalf("round trip: %+v", it)
	}
	if _, err := cl.Get("missing"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("miss: %v", err)
	}
}

func TestEndToEndMultiGetIsOneTransaction(t *testing.T) {
	srv, cl := startServer(t, 0)
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		if err := cl.Set(&Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Stats().Transactions.Load()
	items, err := cl.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 50 {
		t.Fatalf("got %d items", len(items))
	}
	if got := srv.Stats().Transactions.Load() - before; got != 1 {
		t.Fatalf("multi-get cost %d server transactions, want 1", got)
	}
}

func TestEndToEndMultiGetPartialHits(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "a", Value: []byte("1")})
	_ = cl.Set(&Item{Key: "c", Value: []byte("3")})
	items, err := cl.GetMulti([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items["b"] != nil {
		t.Fatalf("partial hits: %v", items)
	}
}

func TestEndToEndEmptyAndBinaryValues(t *testing.T) {
	_, cl := startServer(t, 0)
	vals := [][]byte{{}, {0, 1, 2, 255}, []byte("line\r\nbreak"), []byte(strings.Repeat("x", 10000))}
	for i, v := range vals {
		key := fmt.Sprintf("bin%d", i)
		if err := cl.Set(&Item{Key: key, Value: v}); err != nil {
			t.Fatal(err)
		}
		it, err := cl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if string(it.Value) != string(v) {
			t.Fatalf("value %d corrupted: %q != %q", i, it.Value, v)
		}
	}
}

func TestEndToEndAddReplaceDelete(t *testing.T) {
	_, cl := startServer(t, 0)
	if err := cl.Add(&Item{Key: "k", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add(&Item{Key: "k", Value: []byte("2")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("second add: %v", err)
	}
	if err := cl.Replace(&Item{Key: "k", Value: []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("second delete: %v", err)
	}
	if err := cl.Replace(&Item{Key: "k", Value: []byte("4")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace after delete: %v", err)
	}
}

func TestEndToEndCAS(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("a")})
	items, err := cl.GetsMulti([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	it := items["k"]
	if it == nil || it.CAS == 0 {
		t.Fatalf("gets did not return CAS: %+v", it)
	}
	it.Value = []byte("b")
	if err := cl.CompareAndSwap(it); err != nil {
		t.Fatal(err)
	}
	// The token is now stale.
	it.Value = []byte("c")
	if err := cl.CompareAndSwap(it); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	it.Key = "missing"
	if err := cl.CompareAndSwap(it); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("cas missing: %v", err)
	}
}

func TestEndToEndFlushAllAndVersion(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatal("flush_all did not flush")
	}
	v, err := cl.Version()
	if err != nil || v == "" {
		t.Fatalf("version: %q, %v", v, err)
	}
}

func TestEndToEndStats(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	_, _ = cl.Get("k")
	_, _ = cl.Get("nope")
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["cmd_get"] != "2" || st["get_hits"] != "1" || st["get_misses"] != "1" {
		t.Fatalf("stats: %v", st)
	}
	if st["curr_items"] != "1" {
		t.Fatalf("curr_items: %v", st["curr_items"])
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	_, cl := startServer(t, 0)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) string {
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\r\n")
	}
	if got := send("bogus\r\n"); got != "ERROR" {
		t.Fatalf("bogus command: %q", got)
	}
	if got := send("get\r\n"); got != "ERROR" {
		t.Fatalf("get with no keys: %q", got)
	}
	if got := send("set k notanumber 0 1\r\nx\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad flags: %q", got)
	}
	if got := send("set k 0 0 abc\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad size: %q", got)
	}
	if got := send("delete\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("delete with no key: %q", got)
	}
	// The connection must still work after client errors.
	if got := send("version\r\n"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("connection broken after errors: %q", got)
	}
}

func TestServerNoreply(t *testing.T) {
	_, cl := startServer(t, 0)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two noreply sets followed by a version command; only the version
	// banner should come back.
	if _, err := conn.Write([]byte("set a 0 0 1 noreply\r\nx\r\nset b 0 0 1 noreply\r\ny\r\nversion\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("noreply leaked a response: %q", line)
	}
	if it, err := cl.Get("a"); err != nil || string(it.Value) != "x" {
		t.Fatalf("noreply set lost: %v %v", it, err)
	}
}

func TestServerQuit(t *testing.T) {
	_, cl := startServer(t, 0)
	conn, err := net.Dial("tcp", cl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("quit\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after quit")
	}
}

func TestServerCloseIdempotentAndRefusesServe(t *testing.T) {
	srv := NewServer(NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, base := startServer(t, 0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(base.Addr(), 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				if err := cl.Set(&Item{Key: key, Value: []byte("v")}); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Get(key); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestClientTransactionsCounter(t *testing.T) {
	_, cl := startServer(t, 0)
	base := cl.Transactions()
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	_, _ = cl.GetMulti([]string{"k", "a", "b"})
	if got := cl.Transactions() - base; got != 2 {
		t.Fatalf("transactions = %d, want 2", got)
	}
}

func TestClientEmptyMultiGetIsFree(t *testing.T) {
	_, cl := startServer(t, 0)
	base := cl.Transactions()
	items, err := cl.GetMulti(nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("empty GetMulti: %v %v", items, err)
	}
	if cl.Transactions() != base {
		t.Fatal("empty GetMulti issued a round trip")
	}
}

func TestClientBadKeyRejectedLocally(t *testing.T) {
	_, cl := startServer(t, 0)
	if _, err := cl.GetMulti([]string{"bad key"}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("want ErrBadKey, got %v", err)
	}
	if err := cl.Set(&Item{Key: "bad key", Value: []byte("v")}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("want ErrBadKey, got %v", err)
	}
}

func TestEndToEndAppendPrepend(t *testing.T) {
	_, cl := startServer(t, 0)
	if err := cl.Append("k", []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append to missing: %v", err)
	}
	_ = cl.Set(&Item{Key: "k", Value: []byte("mid")})
	if err := cl.Append("k", []byte("-end")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepend("k", []byte("start-")); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("k")
	if err != nil || string(it.Value) != "start-mid-end" {
		t.Fatalf("concat result: %v %v", it, err)
	}
}

func TestEndToEndIncrDecr(t *testing.T) {
	_, cl := startServer(t, 0)
	if _, err := cl.Incr("counter", 1); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("incr missing: %v", err)
	}
	_ = cl.Set(&Item{Key: "counter", Value: []byte("10")})
	v, err := cl.Incr("counter", 5)
	if err != nil || v != 15 {
		t.Fatalf("incr: %d %v", v, err)
	}
	v, err = cl.Decr("counter", 20)
	if err != nil || v != 0 {
		t.Fatalf("decr clamps at zero: %d %v", v, err)
	}
	// Non-numeric values error without corrupting.
	_ = cl.Set(&Item{Key: "text", Value: []byte("abc")})
	if _, err := cl.Incr("text", 1); err == nil {
		t.Fatal("incr of non-numeric value succeeded")
	}
	it, _ := cl.Get("text")
	if string(it.Value) != "abc" {
		t.Fatal("failed incr corrupted the value")
	}
}

func TestIncrBumpsCAS(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "c", Value: []byte("1")})
	before, _ := cl.GetsMulti([]string{"c"})
	if _, err := cl.Incr("c", 1); err != nil {
		t.Fatal(err)
	}
	after, _ := cl.GetsMulti([]string{"c"})
	if after["c"].CAS <= before["c"].CAS {
		t.Fatal("incr did not advance the CAS token")
	}
}

func TestSetPinnedEndToEnd(t *testing.T) {
	// A small server under heavy churn must keep the pinned entry.
	srv := NewServer(NewStore(8 * 1024))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.SetPinned(&Item{Key: "pinned", Value: []byte("stay")}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	for i := 0; i < 500; i++ {
		if err := cl.Set(&Item{Key: fmt.Sprintf("churn-%03d", i), Value: big}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := cl.Get("pinned")
	if err != nil || string(it.Value) != "stay" {
		t.Fatalf("pinned entry lost: %v %v", it, err)
	}
	if srv.Store().Evictions() == 0 {
		t.Fatal("test premise broken: no eviction pressure")
	}
}

func TestServerSurvivesGarbageStreams(t *testing.T) {
	// Deterministic fuzz: random byte streams and half-valid command
	// streams must never crash the server or wedge the listener; after
	// each stream a fresh client must still work.
	_, cl := startServer(t, 0)
	streams := []string{
		"\r\n\r\n\r\n",
		"get\r\nget \r\n",
		"set\r\n",
		"set k 0 0 5\r\nab\r\n", // short data block
		"gets\r\ncas k 0 0 1 notanumber\r\nx\r\n",
		"VALUE who what\r\nEND\r\n",
		"stats stats stats\r\n",
		"touch\r\ntouch k\r\ntouch k abc\r\n",
		string([]byte{0, 1, 2, 255, '\n', 'g', 'e', 't', '\n'}),
		"delete  \r\n",
		"flush_all noreply\r\nversion\r\n",
	}
	for i, stream := range streams {
		conn, err := net.Dial("tcp", cl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(300 * time.Millisecond))
		_, _ = conn.Write([]byte(stream))
		// Drain whatever comes back, then drop the connection.
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
		// The server must still serve a well-behaved client.
		key := fmt.Sprintf("after-%d", i)
		if err := cl.Set(&Item{Key: key, Value: []byte("ok")}); err != nil {
			t.Fatalf("stream %d wedged the server: %v", i, err)
		}
		if _, err := cl.Get(key); err != nil {
			t.Fatalf("stream %d broke gets: %v", i, err)
		}
	}
}

func TestClientReconnectsAfterServerSideClose(t *testing.T) {
	srv, cl := startServer(t, 0)
	// Force-break the client's connection by restarting... simplest:
	// close all conns on server, then the next client op fails once and
	// the one after succeeds via reconnect.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// First op may fail (broken pipe), second must succeed.
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
}

// TestServerTextGetBytes pins the server's get/gets replies byte for
// byte: field splitting follows strings.Fields (runs of spaces, a
// trailing space, tabs, Unicode spaces), VALUE headers carry flags,
// length and — for gets — the CAS token, and a command line longer
// than the 64 KiB read buffer still arrives whole.
func TestServerTextGetBytes(t *testing.T) {
	srv := NewServer(NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	st := srv.Store()
	for _, it := range []*Item{ // CAS tokens 1, 2, 3 in this order
		{Key: "a", Value: []byte("alpha"), Flags: 5},
		{Key: "b", Value: []byte{}},
		{Key: "c", Value: []byte("gamma"), Flags: 1<<32 - 1},
	} {
		if err := st.Set(it); err != nil {
			t.Fatal(err)
		}
	}
	const (
		a  = "VALUE a 5 5\r\nalpha\r\n"
		b  = "VALUE b 0 0\r\n\r\n"
		c  = "VALUE c 4294967295 5\r\ngamma\r\n"
		as = "VALUE a 5 5 1\r\nalpha\r\n"
		cs = "VALUE c 4294967295 5 3\r\ngamma\r\n"
	)
	// 300 keys of 250 bytes make a get line of about 75 KiB.
	var long strings.Builder
	var longWant strings.Builder
	long.WriteString("get")
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("%0250d", i)
		it := &Item{Key: key, Value: []byte(fmt.Sprintf("v%d", i)), Flags: uint32(i)}
		if err := st.Set(it); err != nil {
			t.Fatal(err)
		}
		long.WriteString(" " + key)
		fmt.Fprintf(&longWant, "VALUE %s %d %d\r\n%s\r\n", key, it.Flags, len(it.Value), it.Value)
	}
	long.WriteString("\r\n")
	longWant.WriteString("END\r\n")

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for _, tc := range []struct{ name, cmd, want string }{
		{"plain", "get a b c\r\n", a + b + c + "END\r\n"},
		{"runs of spaces", "get   a    c\r\n", a + c + "END\r\n"},
		{"trailing space", "get a \r\n", a + "END\r\n"},
		{"tabs", "get\ta\tc\r\n", a + c + "END\r\n"},
		{"bare newline", "get c\n", c + "END\r\n"},
		{"unicode space", "get a\u00a0c\r\n", a + c + "END\r\n"},
		{"misses", "get x a y\r\n", a + "END\r\n"},
		{"duplicate", "get a a\r\n", a + a + "END\r\n"},
		{"no keys", "get\r\n", "ERROR\r\n"},
		{"gets", "gets a missing c\r\n", as + cs + "END\r\n"},
		{"gets spaces", " gets  c   a \r\n", cs + as + "END\r\n"},
		{"long line", long.String(), longWant.String()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			// The trailing version proves the reply ends where want does.
			if _, err := conn.Write([]byte(tc.cmd + "version\r\n")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(tc.want))
			if _, err := io.ReadFull(br, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("reply to %q:\n got %q\nwant %q", tc.cmd, got, tc.want)
			}
			if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION ") {
				t.Fatalf("after the reply: %q %v", line, err)
			}
		})
	}
}
