//go:build !race

// Allocation-budget regression gate for the whole live read path (run
// via `make bench-alloc`; excluded under -race because the race
// runtime's shadow allocations distort testing.AllocsPerRun).
package rnb

import (
	"bytes"
	"testing"
)

// TestAllocBudgetClientGetMulti bounds one RnB multi-get end to end:
// planning, the round-1 fan-out over the text wire, the servers'
// parsing and replies, decoding and the merge. The count covers every
// goroutine, the four in-process servers included, so a per-key or
// per-hit cost anywhere on the path shows up here.
//
// Ring positions derive from the servers' ports, so the plan — two or
// three transactions, and how many hitchhikers ride them — varies from
// run to run. The budget is therefore a fixed part plus a part per
// transaction. Measured 48–55 allocs/op at two transactions and 64–73
// at three.
func TestAllocBudgetClientGetMulti(t *testing.T) {
	cl, _ := newTestClient(t, 4)
	ks := keys(16)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: bytes.Repeat([]byte("v"), 100)}); err != nil {
			t.Fatal(err)
		}
	}
	var txns int
	get := func() {
		items, st, err := cl.GetMulti(ks)
		txns = st.Transactions
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(ks) {
			t.Fatalf("%d/%d items", len(items), len(ks))
		}
	}
	get() // warm connections and pooled scratch outside the window
	got := testing.AllocsPerRun(200, get)
	budget := float64(28 + 16*txns)
	t.Logf("rnb GetMulti, 16 warm keys over 4 text servers in %d transactions: %.1f allocs/op (budget %.0f)", txns, got, budget)
	if got > budget {
		t.Errorf("rnb GetMulti: %.1f allocs/op in %d transactions, budget %.0f", got, txns, budget)
	}
}
