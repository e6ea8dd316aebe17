//go:build !race

// Allocation-budget regression gates for the transport hot paths (run
// via `make bench-alloc`; excluded under -race because the race
// runtime's shadow allocations distort testing.AllocsPerRun).
package memcache

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// allocGate fails when fn's steady-state allocation count exceeds the
// budget, and returns the count. The measured value is logged so
// regressions show their size.
func allocGate(t *testing.T, name string, budget float64, fn func()) float64 {
	t.Helper()
	fn() // warm lazily initialized pools outside the measured window
	got := testing.AllocsPerRun(200, fn)
	t.Logf("%s: %.1f allocs/op (budget %.1f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.1f", name, got, budget)
	}
	return got
}

// TestAllocBudgetEncode: command encoding — text and binary — must not
// allocate at all in steady state. The pooled writer loop calls these
// under its flush lock, so every alloc here is paid once per request on
// every connection.
func TestAllocBudgetEncode(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	keys := []string{"alloc:000", "alloc:001", "alloc:002", "alloc:003",
		"alloc:004", "alloc:005", "alloc:006", "alloc:007"}
	it := &Item{Key: "alloc:key", Value: bytes.Repeat([]byte("v"), 100), Flags: 7, Expiration: 60}

	allocGate(t, "text get encode", 0, func() {
		if err := writeGetCmd(w, "get", keys); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "text set encode", 0, func() {
		if err := writeStoreCmd(w, "set", it, 0); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "text incr encode", 0, func() {
		if err := writeIncrDecrCmd(w, "incr", "alloc:key", 42); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "binary multiget encode", 0, func() {
		if err := writeBinMultiGetCmd(w, keys); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "binary set encode", 0, func() {
		if err := writeBinStoreCmd(w, binOpSet, it, 0); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "binary incr encode", 0, func() {
		if err := writeBinIncrDecrCmd(w, binOpIncrement, "alloc:key", 42); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
}

// textResponse renders a canned text "gets" response: one 100-byte
// hit per key, in request order.
func textResponse(keys []string) []byte {
	var text bytes.Buffer
	for i, k := range keys {
		fmt.Fprintf(&text, "VALUE %s %d 100 %d\r\n%s\r\n", k, i, i+1, bytes.Repeat([]byte("v"), 100))
	}
	text.WriteString("END\r\n")
	return text.Bytes()
}

func allocKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:%03d", i)
	}
	return keys
}

// TestAllocBudgetDecode: response decoding pays only what escapes into
// the result and nothing for protocol framing. A text response costs a
// constant — its item slab and its value slab — however many hits it
// carries, so the budget is the same at 8 and at 16 hits. The binary
// decoder still pays per hit: the Item, its key string and its frame
// body (3 allocs), plus amortized map growth.
func TestAllocBudgetDecode(t *testing.T) {
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(nil)
	const textBudget = 2
	for _, hits := range []int{8, 16} {
		keys := allocKeys(hits)
		text := textResponse(keys)
		out := make(map[string]*Item, hits)
		allocGate(t, fmt.Sprintf("text multiget decode, %d hits", hits), textBudget, func() {
			rd.Reset(text)
			br.Reset(rd)
			clear(out)
			if err := readValuesInto(br, true, keys, out); err != nil {
				t.Fatal(err)
			}
			if len(out) != hits {
				t.Fatalf("decoded %d hits", len(out))
			}
		})
	}

	const hits = 8
	var bin bytes.Buffer
	for i, key := range allocKeys(hits) {
		extras := []byte{0, 0, 0, byte(i)}
		bin.Write(binResFrame(binOpGetKQ, binStatusOK, uint32(i), uint64(i+1), extras, key, string(bytes.Repeat([]byte("v"), 100))))
	}
	bin.Write(binResFrame(binOpNoop, binStatusOK, hits, 0, nil, "", ""))
	out := make(map[string]*Item, hits)
	allocGate(t, "binary multiget decode", float64(3*hits)+1, func() {
		rd.Reset(bin.Bytes())
		br.Reset(rd)
		clear(out)
		if err := readBinMultiGetInto(br, hits, out); err != nil {
			t.Fatal(err)
		}
		if len(out) != hits {
			t.Fatalf("decoded %d hits", len(out))
		}
	})
	stored := []byte("STORED\r\n")
	allocGate(t, "text store reply decode", 0, func() {
		rd.Reset(stored)
		br.Reset(rd)
		if err := readStoreReply(br); err != nil {
			t.Fatal(err)
		}
	})
	storedFrame := binResFrame(binOpSet, binStatusOK, 0, 1, nil, "", "")
	allocGate(t, "binary store reply decode", 0, func() {
		rd.Reset(storedFrame)
		br.Reset(rd)
		if err := readBinStatusReply(br, binOpSet); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetPoolRoundTrip bounds the whole pooled multiget path —
// routing, queueing, batched flush, demux — end to end against a live
// server. The budget is per GetMulti of 8 keys, all hits, and covers
// every goroutine (AllocsPerRun counts globally), so it gates the
// writer-loop flush path too.
func TestAllocBudgetPoolRoundTrip(t *testing.T) {
	for _, lane := range []struct {
		name   string
		binary bool
		budget float64
	}{
		// Measured 12 allocs/op (text) and 42 (binary) per 8-key
		// multiget. Text pays per request, not per hit: the item and
		// value slabs, the server's command string and result map,
		// plus fixed request plumbing (poolRequest, closures, done
		// channel, result map). Binary still pays 3 per hit for the
		// escaping items and ~1 per key of server-side parsing. The
		// slack absorbs map growth jitter without letting a per-key
		// regression through.
		{"text", false, 13},
		{"binary", true, 44},
	} {
		t.Run(lane.name, func(t *testing.T) {
			srv := NewServer(NewStore(0))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()
			p, err := NewPool(ln.Addr().String(), 2*time.Second, PoolConfig{Size: 1, Binary: lane.binary})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("alloc:%03d", i)
				if err := p.Set(&Item{Key: keys[i], Value: bytes.Repeat([]byte("v"), 100)}); err != nil {
					t.Fatal(err)
				}
			}
			allocGate(t, lane.name+" pooled multiget", lane.budget, func() {
				items, err := p.GetMulti(keys)
				if err != nil {
					t.Fatal(err)
				}
				if len(items) != len(keys) {
					t.Fatalf("%d items", len(items))
				}
			})
		})
	}
}

// TestAllocBudgetServerTextGet: a text get costs the server a constant
// number of allocations, not a set per key or per hit. The client side
// is a raw socket that reads the reply to END without decoding it, so
// the count is the server's: command-line tokenizing, the VALUE
// headers and the backend lookup. A get of 64 resident keys must cost
// what a get of 8 does, within 2 (the backend's result map grows a
// little with the key count; Backend.GetMulti is not gated here).
func TestAllocBudgetServerTextGet(t *testing.T) {
	srv := NewServer(NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	keys := allocKeys(64)
	for _, k := range keys {
		if err := srv.Store().Set(&Item{Key: k, Value: bytes.Repeat([]byte("v"), 100)}); err != nil {
			t.Fatal(err)
		}
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	get := func(n int, budget float64) float64 {
		req := []byte("get " + strings.Join(keys[:n], " ") + "\r\n")
		return allocGate(t, fmt.Sprintf("server text get, %d keys", n), budget, func() {
			if _, err := conn.Write(req); err != nil {
				t.Fatal(err)
			}
			hits := 0
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(line, []byte("END\r\n")) {
					break
				}
				if bytes.HasPrefix(line, []byte("VALUE ")) {
					hits++
				}
			}
			if hits != n {
				t.Fatalf("%d hits, want %d", hits, n)
			}
		})
	}
	// Measured 3 (the command line's string, the result map and its
	// group) at 8 keys and 5 at 64, where the map needs a table.
	if few, many := get(8, 4), get(64, 6); many > few+2 {
		t.Errorf("server text get: %.1f allocs for 64 keys vs %.1f for 8; the per-key cost is back", many, few)
	}
}
