package memcache

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

func startUDPServer(t *testing.T, payload int) (*UDPServer, *UDPClient) {
	t.Helper()
	srv := NewServer(NewStore(0))
	udp := NewUDPServer(srv, payload)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go udp.Serve(conn)
	t.Cleanup(func() { udp.Close() })
	cl, err := DialUDP(conn.LocalAddr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return udp, cl
}

func TestUDPSetGet(t *testing.T) {
	_, cl := startUDPServer(t, 0)
	if err := cl.Set(&Item{Key: "k", Value: []byte("v"), Flags: 3}); err != nil {
		t.Fatal(err)
	}
	items, err := cl.Get("k", "missing")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || string(items["k"].Value) != "v" || items["k"].Flags != 3 {
		t.Fatalf("udp get: %v", items)
	}
}

func TestUDPVersion(t *testing.T) {
	_, cl := startUDPServer(t, 0)
	v, err := cl.Version()
	if err != nil || !strings.Contains(v, "rnb-memcache") {
		t.Fatalf("version: %q %v", v, err)
	}
}

func TestUDPMultiDatagramResponse(t *testing.T) {
	// A tiny payload budget forces the response to span many datagrams;
	// reassembly must produce the exact value.
	_, cl := startUDPServer(t, 100)
	big := []byte(strings.Repeat("x", 2000))
	if err := cl.Set(&Item{Key: "big", Value: big}); err != nil {
		t.Fatal(err)
	}
	items, err := cl.Get("big")
	if err != nil {
		t.Fatal(err)
	}
	if string(items["big"].Value) != string(big) {
		t.Fatal("multi-datagram reassembly corrupted the value")
	}
}

func TestUDPLossSurfacesAsError(t *testing.T) {
	// Query a dead port: no response datagrams -> timeout -> ErrUDPLoss.
	cl, err := DialUDP("127.0.0.1:9", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get("k"); !errors.Is(err, ErrUDPLoss) {
		t.Fatalf("want ErrUDPLoss, got %v", err)
	}
	if cl.Losses() != 1 {
		t.Fatalf("losses = %d", cl.Losses())
	}
}

func TestUDPBadKey(t *testing.T) {
	_, cl := startUDPServer(t, 0)
	if _, err := cl.Get("bad key"); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad key: %v", err)
	}
	if err := cl.Set(&Item{Key: "bad key", Value: []byte("v")}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad key set: %v", err)
	}
}

func TestUDPManySequentialRequests(t *testing.T) {
	// Sequential request/response over loopback should be loss-free and
	// exercise request-id matching.
	_, cl := startUDPServer(t, 0)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := cl.Set(&Item{Key: key, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		items, err := cl.Get(key)
		if err != nil || len(items) != 1 {
			t.Fatalf("iteration %d: %v %v", i, items, err)
		}
	}
	if cl.Losses() != 0 {
		t.Fatalf("sequential loopback lost %d responses", cl.Losses())
	}
}

func TestUDPServerCloseIdempotent(t *testing.T) {
	udp, _ := startUDPServer(t, 0)
	if err := udp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := udp.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestUDPOversizedValueRejected: a response datagram declaring a value
// far over MaxValueLen is refused by the codec's size guard — the
// client returns an error without allocating the declared length.
func TestUDPOversizedValueRejected(t *testing.T) {
	fake, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		buf := make([]byte, 2048)
		n, raddr, err := fake.ReadFromUDP(buf)
		if err != nil {
			return
		}
		reqID, _, _, err := parseUDPHeader(buf[:n])
		if err != nil {
			return
		}
		resp := make([]byte, udpHeaderLen)
		putUDPHeader(resp, reqID, 0, 1)
		resp = append(resp, "VALUE k 0 2000000000\r\nxx\r\nEND\r\n"...)
		if _, err := fake.WriteToUDP(resp, raddr); err != nil {
			t.Error(err)
		}
	}()
	cl, err := DialUDP(fake.LocalAddr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	items, err := cl.Get("k")
	runtime.ReadMemStats(&after)
	<-served
	if err == nil || errors.Is(err, ErrUDPLoss) {
		t.Fatalf("oversized VALUE: items %v, err %v", items, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding the oversized header allocated %d bytes", grew)
	}
}
