package tkip

import "testing"

// TestTraceDedupWindowEviction pins the TSCWindow boundary contract
// documented on the type: filling the window evicts nothing, probing
// neither refreshes nor evicts, and acceptance number window+1 evicts
// exactly the oldest accepted TSC — strictly FIFO, one at a time.
func TestTraceDedupWindowEviction(t *testing.T) {
	w := &TSCWindow{}
	for i := 1; i <= dedupWindow; i++ {
		if !w.Accept(TSC(i)) {
			t.Fatalf("fresh TSC %d reported duplicate while filling the window", i)
		}
	}
	// The window is exactly full: its oldest entry is still remembered, and
	// probing it does not advance the ring.
	if w.Accept(TSC(1)) {
		t.Fatal("oldest TSC forgotten before the window overflowed")
	}
	if w.Accept(TSC(1)) {
		t.Fatal("membership probe evicted or forgot the probed TSC")
	}
	if len(w.seen) != dedupWindow {
		t.Fatalf("window holds %d TSCs, want %d", len(w.seen), dedupWindow)
	}
	// Acceptance window+1 evicts TSC 1 — and only TSC 1.
	if !w.Accept(TSC(dedupWindow + 1)) {
		t.Fatal("fresh TSC reported duplicate at the window boundary")
	}
	if w.Accept(TSC(2)) {
		t.Fatal("eviction was not FIFO: TSC 2 evicted instead of TSC 1")
	}
	// The evicted TSC re-enters as a fresh acceptance (the documented
	// replay/wrap trade-off), which in turn evicts the now-oldest TSC 2.
	if !w.Accept(TSC(1)) {
		t.Fatal("evicted TSC still reported duplicate")
	}
	if w.Accept(TSC(1)) {
		t.Fatal("re-accepted TSC not remembered")
	}
	if !w.Accept(TSC(2)) {
		t.Fatal("re-accepting an evicted TSC did not evict the oldest entry")
	}
	// Entries behind the eviction frontier are untouched.
	if w.Accept(TSC(4)) {
		t.Fatal("TSC 4 lost though only three evictions happened")
	}
	if len(w.seen) != dedupWindow {
		t.Fatalf("window drifted to %d TSCs, want %d", len(w.seen), dedupWindow)
	}
}
