package memcache

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// decodeText runs readValuesInto over a canned response.
func decodeText(t *testing.T, resp string, withCAS bool, keys []string) map[string]*Item {
	t.Helper()
	out := map[string]*Item{}
	if err := readValuesInto(bufio.NewReader(strings.NewReader(resp)), withCAS, keys, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadValuesAppendIsolation: the items of one response share their
// backing slabs, yet appending to one item's Value must never write
// into a neighbour's — every Value's capacity equals its length.
func TestReadValuesAppendIsolation(t *testing.T) {
	big := strings.Repeat("B", slabValueMax+1)
	keys := []string{"a", "b", "c", "d", "e"}
	resp := "VALUE a 0 1\r\n1\r\n" +
		"VALUE b 0 0\r\n\r\n" +
		"VALUE c 0 3\r\n333\r\n" +
		fmt.Sprintf("VALUE d 0 %d\r\n%s\r\n", len(big), big) +
		"VALUE e 0 2\r\n55\r\nEND\r\n"
	want := map[string]string{"a": "1", "b": "", "c": "333", "d": big, "e": "55"}
	out := decodeText(t, resp, false, keys)
	for k, it := range out {
		if cap(it.Value) != len(it.Value) {
			t.Errorf("%s: cap %d != len %d", k, cap(it.Value), len(it.Value))
		}
		if it.Value == nil {
			t.Errorf("%s: nil Value", k)
		}
	}
	for _, k := range keys {
		out[k].Value = append(out[k].Value, "XXXXXXXX"...)
		for _, other := range keys {
			if other == k {
				continue
			}
			if got := string(out[other].Value); got != want[other] && got != want[other]+"XXXXXXXX" {
				t.Fatalf("append to %s changed %s to %q", k, other, got)
			}
		}
	}
	for _, k := range keys {
		if got := string(out[k].Value); got != want[k]+"XXXXXXXX" {
			t.Fatalf("%s = %q", k, got)
		}
	}
}

// TestReadValuesKeyMatching: a VALUE key is matched forward against the
// request's keys, reusing the caller's string; out-of-order, never
// requested and duplicate keys must still decode to the right Key.
func TestReadValuesKeyMatching(t *testing.T) {
	t.Run("in order reuses the caller's strings", func(t *testing.T) {
		keys := []string{"k1", "k2", "k3", "k4"}
		out := decodeText(t, "VALUE k1 0 1\r\na\r\nVALUE k3 0 1\r\nc\r\nVALUE k4 0 1\r\nd\r\nEND\r\n", false, keys)
		for _, i := range []int{0, 2, 3} {
			it := out[keys[i]]
			if it == nil || it.Key != keys[i] {
				t.Fatalf("%s: %+v", keys[i], it)
			}
			if unsafe.StringData(it.Key) != unsafe.StringData(keys[i]) {
				t.Errorf("%s: key was copied, not reused", keys[i])
			}
		}
	})
	t.Run("out of order", func(t *testing.T) {
		keys := []string{"a", "b", "c"}
		out := decodeText(t, "VALUE c 1 1\r\nC\r\nVALUE a 2 1\r\nA\r\nVALUE b 3 1\r\nB\r\nEND\r\n", false, keys)
		for k, v := range map[string]string{"a": "A", "b": "B", "c": "C"} {
			if it := out[k]; it == nil || it.Key != k || string(it.Value) != v {
				t.Fatalf("%s: %+v", k, it)
			}
		}
	})
	t.Run("unrequested", func(t *testing.T) {
		keys := []string{"a", "b"}
		out := decodeText(t, "VALUE a 0 1\r\nA\r\nVALUE zz 0 1\r\nZ\r\nVALUE b 0 1\r\nB\r\nEND\r\n", false, keys)
		if len(out) != 3 {
			t.Fatalf("%d items", len(out))
		}
		for k, v := range map[string]string{"a": "A", "zz": "Z", "b": "B"} {
			if it := out[k]; it == nil || it.Key != k || string(it.Value) != v {
				t.Fatalf("%s: %+v", k, it)
			}
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		keys := []string{"a", "a"}
		out := decodeText(t, "VALUE a 0 1\r\n1\r\nVALUE a 0 1\r\n2\r\nEND\r\n", false, keys)
		if it := out["a"]; len(out) != 1 || it.Key != "a" || string(it.Value) != "2" {
			t.Fatalf("get a a: %v", out)
		}
	})
	t.Run("gets tokens", func(t *testing.T) {
		keys := []string{"x", "y"}
		out := decodeText(t, "VALUE y 7 2 99\r\nyy\r\nVALUE x 8 1 18446744073709551615\r\nx\r\nEND\r\n", true, keys)
		if it := out["x"]; it.Key != "x" || it.Flags != 8 || it.CAS != 1<<64-1 || string(it.Value) != "x" {
			t.Fatalf("x: %+v", it)
		}
		if it := out["y"]; it.Key != "y" || it.Flags != 7 || it.CAS != 99 || string(it.Value) != "yy" {
			t.Fatalf("y: %+v", it)
		}
	})
}

// TestReadValuesErrorMergesNothing: a response that breaks off mid-way
// is an error, and none of its items reach the caller's map.
func TestReadValuesErrorMergesNothing(t *testing.T) {
	for _, resp := range []string{
		"VALUE a 0 1\r\nA\r\nVALUE b 0 5\r\nBB",             // truncated block
		"VALUE a 0 1\r\nA\r\nVALUE b 0 1\r\nBxx\r\nEND\r\n", // block overruns its size
		"VALUE a 0 1\r\nA\r\nVALUE b 0 2000000000\r\n",      // oversized declared length
	} {
		out := map[string]*Item{}
		if err := readValuesInto(bufio.NewReader(strings.NewReader(resp)), false, []string{"a", "b"}, out); err == nil {
			t.Errorf("%q: decoded without error", resp)
		}
		if len(out) != 0 {
			t.Errorf("%q: merged %d items before the error", resp, len(out))
		}
	}
}

// FuzzAppendFields: the server's in-place tokenizer splits exactly where
// strings.Fields does, Unicode spaces included.
func FuzzAppendFields(f *testing.F) {
	for _, s := range []string{
		"get a b", "  get   a  ", "get\ta\tb", "gets a\r\n", "get a b",
		"get a\u0085b c　", "\xc2", "get \xff\xfe b", "", "   ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendFields(nil, s)
		want := strings.Fields(s)
		if len(got) != len(want) {
			t.Fatalf("%q: %q, strings.Fields %q", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q: %q, strings.Fields %q", s, got, want)
			}
		}
	})
}
