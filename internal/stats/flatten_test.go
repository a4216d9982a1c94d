package stats

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type leaf struct {
	A atomic.Uint64 `metric:"leaf_a"`
	B atomic.Uint64 `metric:"leaf_b"`
}

type tree struct {
	Top    atomic.Uint64 `metric:"top"`
	hidden atomic.Uint64 // unexported: not a reported counter
	Note   string        // not a counter: ignored
	Inner  leaf          // value struct: flattened in place
	Ptr    *Scrub        // pointer: flattened when set
	NilPtr *WAL          // pointer: skipped while nil
}

func TestFlattenNested(t *testing.T) {
	var tr tree
	tr.Top.Add(1)
	tr.hidden.Add(9)
	tr.Inner.A.Add(2)
	tr.Inner.B.Add(3)
	tr.Ptr = &Scrub{}
	tr.Ptr.Repairs.Add(4)
	got := Flatten(&tr)
	want := map[string]uint64{
		"top": 1, "leaf_a": 2, "leaf_b": 3,
		"tables_scrubbed": 0, "scrub_bytes": 0, "scrub_corruptions": 0, "repairs": 4, "repair_failures": 0,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Flatten = %v, want %v", got, want)
	}

	tr.NilPtr = &WAL{}
	tr.NilPtr.Fsyncs.Add(5)
	got = Flatten(&tr)
	if len(got) != len(want)+7 || got["wal_fsyncs"] != 5 {
		t.Fatalf("a non-nil pointer's counters are missing: %v", got)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("recovered %v, want a panic naming %q", r, want)
		}
	}()
	fn()
}

func TestFlattenPanicsOnUntagged(t *testing.T) {
	var v struct {
		Tagged   atomic.Uint64 `metric:"tagged"`
		Untagged atomic.Uint64
	}
	mustPanic(t, "Untagged", func() { Flatten(&v) })
}

func TestFlattenPanicsOnDuplicate(t *testing.T) {
	var v struct {
		First leaf
		Again leaf // same names a second time
	}
	mustPanic(t, `"leaf_a"`, func() { Flatten(&v) })
}

// TestFlattenConcurrent snapshots while 8 goroutines increment; under -race
// a walker that read the counter's word directly would be reported here.
func TestFlattenConcurrent(t *testing.T) {
	var tr tree
	const writers, adds = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < adds; j++ {
				tr.Top.Add(1)
				tr.Inner.B.Add(1)
			}
		}()
	}
	var last uint64
	for i := 0; i < 50; i++ {
		got := Flatten(&tr)["top"]
		if got < last {
			t.Fatalf("counter went backwards: %d after %d", got, last)
		}
		last = got
	}
	wg.Wait()
	if got := Flatten(&tr); got["top"] != writers*adds || got["leaf_b"] != writers*adds {
		t.Fatalf("final snapshot = %v, want %d each", got, writers*adds)
	}
}
