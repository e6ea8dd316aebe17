package core

import (
	"reflect"
	"testing"

	"rnb/internal/hashring"
)

// fakeTier is a Fetcher over an in-memory residency table: a lookup
// hits when the server holds the item, and every transaction to a
// failed server fails.
type fakeTier struct {
	resident   map[[2]uint64]bool // {server, item}
	failed     map[int]bool
	fetched    []Stage
	writeBacks [][2]uint64
	fallback   []uint64
}

func (f *fakeTier) Fetch(r *Results, stage Stage, _ int, txns []Transaction) {
	for _, txn := range txns {
		f.fetched = append(f.fetched, stage)
		if f.failed[txn.Server] {
			r.Failed(txn.Server)
			continue
		}
		for _, keys := range [2][]uint64{txn.Primary, txn.Hitchhikers} {
			for _, it := range keys {
				if f.resident[[2]uint64{uint64(txn.Server), it}] {
					r.Got(it, txn.Server)
				}
			}
		}
	}
}

func (f *fakeTier) WriteBack(server int, item uint64) {
	f.writeBacks = append(f.writeBacks, [2]uint64{uint64(server), item})
}

func (f *fakeTier) Fallback(r *Results, items []uint64) {
	f.fallback = append(f.fallback, items...)
	for _, it := range items {
		r.Got(it, -1)
	}
}

func execItems(n int) []uint64 {
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(i*7919 + 13)
	}
	return items
}

// TestExecuteWriteBackRule pins the one write-back policy: exactly the
// assigned items that round 1 did not obtain — neither their primary
// lookup nor a hitchhiker — are written back to their assigned server,
// in plan order. Items a hitchhiker rescued are not.
func TestExecuteWriteBackRule(t *testing.T) {
	placement := hashring.NewMultiHashPlacement(8, 3, 1)
	p := NewPlanner(placement, Options{Hitchhike: true})
	items := execItems(24)
	plan, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the distinguished copies are resident.
	f := &fakeTier{resident: map[[2]uint64]bool{}}
	for i, it := range items {
		f.resident[[2]uint64{uint64(plan.Replicas[i][0]), it}] = true
	}
	var want [][2]uint64
	rescued := 0
	for i, it := range items {
		got := false
		for _, txn := range plan.Transactions {
			for _, keys := range [2][]uint64{txn.Primary, txn.Hitchhikers} {
				for _, k := range keys {
					got = got || (k == it && txn.Server == plan.Replicas[i][0])
				}
			}
		}
		if !got {
			want = append(want, [2]uint64{uint64(plan.ItemServer[i]), it})
		} else if plan.ItemServer[i] != plan.Replicas[i][0] {
			rescued++
		}
	}
	if len(want) == 0 || rescued == 0 {
		t.Fatalf("premise: %d misses, %d hitchhiker rescues", len(want), rescued)
	}
	o, err := Execute(plan, f, ExecConfig{WriteBack: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.writeBacks, want) {
		t.Fatalf("write-backs %v, want %v", f.writeBacks, want)
	}
	if o.WriteBacks != len(want) || o.Obtained != len(items) || o.Round2 == 0 || len(f.fallback) != 0 {
		t.Fatalf("outcome %+v, fallback %v", o, f.fallback)
	}
	if o.Misses != len(want)+rescued || o.HitchhikeHits != rescued {
		t.Fatalf("misses %d hitchhike hits %d, want %d and %d", o.Misses, o.HitchhikeHits, len(want)+rescued, rescued)
	}

	f.writeBacks = nil
	if _, err := Execute(plan, f, ExecConfig{}); err != nil || f.writeBacks != nil {
		t.Fatalf("write-back off still wrote %v (err %v)", f.writeBacks, err)
	}
}

// TestExecuteShortfallStopsAtTarget: with every server avoided the tier
// supplies nothing, and a LIMIT request hands the fallback only the
// items it needs to reach the target, in plan order.
func TestExecuteShortfallStopsAtTarget(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(8, 3, 1), Options{})
	items := execItems(16)
	all := func(int) bool { return true }
	plan, err := p.BuildAvoiding(items, 8, all)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeTier{}
	o, err := Execute(plan, f, ExecConfig{Target: 8, Avoid: all, WriteBack: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.fallback, items[:8]) || o.Fallback != 8 || o.Obtained != 8 || o.Transactions != 0 {
		t.Fatalf("fallback %v, outcome %+v", f.fallback, o)
	}
	if f.writeBacks != nil {
		t.Fatalf("unassigned items written back: %v", f.writeBacks)
	}
}

// TestExecuteReplansAroundFailure: a failed round-1 transaction is
// re-covered over the survivors, never the failed server, before any
// round 2.
func TestExecuteReplansAroundFailure(t *testing.T) {
	placement := hashring.NewMultiHashPlacement(8, 3, 1)
	p := NewPlanner(placement, Options{})
	items := execItems(24)
	plan, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.Transactions[0].Server
	f := &fakeTier{resident: map[[2]uint64]bool{}, failed: map[int]bool{victim: true}}
	for i, it := range items {
		for _, s := range plan.Replicas[i] {
			f.resident[[2]uint64{uint64(s), it}] = true
		}
	}
	o, err := Execute(plan, f, ExecConfig{Planner: p, Replans: 2, WriteBack: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Failed != 1 || o.Replans != 1 || o.Retries == 0 || o.Round2 != 0 || o.Obtained != len(items) {
		t.Fatalf("outcome %+v", o)
	}
	if o.Transactions != len(plan.Transactions)+o.Retries {
		t.Fatalf("%d transactions, want %d round 1 + %d retries", o.Transactions, len(plan.Transactions), o.Retries)
	}
	// Re-planned items were recovered before round 2 was due: they are
	// not late, so nothing is written back — least of all to the
	// failed server.
	if f.writeBacks != nil {
		t.Fatalf("write-backs after a re-plan: %v", f.writeBacks)
	}
}
