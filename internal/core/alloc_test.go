//go:build !race

// Allocation-budget regression gate for the planner hot path (run via
// `make bench-alloc`; excluded under -race because the race runtime's
// shadow allocations distort testing.AllocsPerRun).
package core

import (
	"testing"

	"rnb/internal/hashring"
)

// TestAllocBudgetPlannerBuild bounds steady-state Build allocations:
// with the pooled buildScratch, the only memory a Build may allocate is
// what escapes into the returned Plan — the Plan itself, ItemServer,
// the Replicas slice-of-slices plus its single backing slab, the
// Transactions slice, and the single Primary slab — independent of the
// transaction count. The per-item maps, bitsets, and server tallies all
// come from the scratch pool.
func TestAllocBudgetPlannerBuild(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{})
	items := make([]uint64, 16)
	for i := range items {
		items[i] = uint64(i*2654435761 + 97)
	}
	// Warm the scratch pool outside the measured window.
	if _, err := p.Build(items, 0); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		plan, err := p.Build(items, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Assigned != len(items) {
			t.Fatalf("assigned %d/%d", plan.Assigned, len(items))
		}
	})
	// Measured 11 allocs/op for a 16-item build (the escaping Plan
	// pieces plus the set-cover's internal universe clone). The budget
	// leaves slack for scheduler noise but fails if per-item or
	// per-transaction allocation creeps back in (16+ extra allocs).
	const budget = 14
	t.Logf("planner build: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("planner build: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocBudgetExecute: a request that round 1 completes runs through
// the executor without allocating — its per-request state (item index,
// obtained-by table, server tallies) comes from a pool, so the live
// client's hot path pays nothing for sharing the engine.
func TestAllocBudgetExecute(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{Hitchhike: true})
	items := execItems(16)
	plan, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeTier{resident: map[[2]uint64]bool{}}
	for i, it := range items {
		for _, s := range plan.Replicas[i] {
			f.resident[[2]uint64{uint64(s), it}] = true
		}
	}
	cfg := ExecConfig{Planner: p, Replans: 1, WriteBack: true}
	if _, err := Execute(plan, f, cfg); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		f.fetched = f.fetched[:0]
		o, err := Execute(plan, f, cfg)
		if err != nil || o.Obtained != len(items) || o.Round2 != 0 {
			t.Fatalf("outcome %+v, err %v", o, err)
		}
	})
	t.Logf("execute: %.1f allocs/op", got)
	if got > 0 {
		t.Errorf("execute: %.1f allocs/op, budget 0", got)
	}
}
