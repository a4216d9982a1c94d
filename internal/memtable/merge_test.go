package memtable

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// pullSlice is a merge source over a sorted slice.
func pullSlice(entries []Entry) Source {
	r := Run(entries)
	return &r
}

// sourceFunc adapts a function to Source.
type sourceFunc func() (Entry, bool, error)

func (f sourceFunc) Next() (Entry, bool, error) { return f() }

// randomRun returns a sorted run of distinct keys drawn from a small key
// space, so runs overlap; some entries are tombstones, and some runs are
// empty.
func randomRun(rng *rand.Rand, src int) []Entry {
	n := rng.Intn(40)
	if rng.Intn(5) == 0 {
		n = 0
	}
	keys := map[string]bool{}
	for len(keys) < n {
		keys[fmt.Sprintf("k%03d", rng.Intn(100))] = true
	}
	var run []Entry
	for k := range keys {
		e := Entry{Key: []byte(k), Value: []byte(fmt.Sprintf("%s@%d", k, src))}
		if rng.Intn(6) == 0 {
			e.Value, e.Tombstone = nil, true
		}
		run = append(run, e)
	}
	sort.Slice(run, func(i, j int) bool { return string(run[i].Key) < string(run[j].Key) })
	return run
}

func drain(t *testing.T, m *Merger) []Entry {
	t.Helper()
	var out []Entry
	for {
		e, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// TestMergerMatchesOracle checks the merge against a map-based newest-wins
// oracle: each key's entry from the earliest source that holds it, in key
// order, tombstones included.
func TestMergerMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runs := make([][]Entry, 1+rng.Intn(8))
		oracle := map[string]Entry{}
		for i := len(runs) - 1; i >= 0; i-- { // oldest first, so newer overwrite
			runs[i] = randomRun(rng, i)
			for _, e := range runs[i] {
				oracle[string(e.Key)] = e
			}
		}
		var hi []byte
		if rng.Intn(3) == 0 {
			hi = []byte(fmt.Sprintf("k%03d", rng.Intn(100)))
		}
		var want []Entry
		for _, e := range oracle {
			if hi == nil || string(e.Key) < string(hi) {
				want = append(want, e)
			}
		}
		sort.Slice(want, func(i, j int) bool { return string(want[i].Key) < string(want[j].Key) })

		sources := make([]Source, len(runs))
		for i, run := range runs {
			sources[i] = pullSlice(run)
		}
		m, err := NewMerger(sources, hi)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, m)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: merge\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestMergerSourceError: a source failing mid-stream stops the merge with
// its error, and nothing is yielded after it.
func TestMergerSourceError(t *testing.T) {
	boom := errors.New("boom")
	good := pullSlice([]Entry{{Key: []byte("a")}, {Key: []byte("c")}, {Key: []byte("e")}, {Key: []byte("g")}})
	pulls := 0
	failing := sourceFunc(func() (Entry, bool, error) {
		pulls++
		switch pulls {
		case 1:
			return Entry{Key: []byte("b")}, true, nil
		case 2:
			return Entry{Key: []byte("d")}, true, nil
		}
		return Entry{}, false, boom
	})
	m, err := NewMerger([]Source{good, failing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for {
		e, ok, err := m.Next()
		if err != nil {
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want boom", err)
			}
			break
		}
		if !ok {
			t.Fatal("merge ended cleanly past a failing source")
		}
		keys = append(keys, string(e.Key))
	}
	// "d" is yielded only if its source can be advanced past it.
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("yielded %v before the error, want [a b c]", keys)
	}
	for i := 0; i < 2; i++ {
		if e, ok, err := m.Next(); ok || !errors.Is(err, boom) {
			t.Fatalf("after the error: %v %v %v", e, ok, err)
		}
	}

	// A source failing on its first pull fails the open.
	first := sourceFunc(func() (Entry, bool, error) { return Entry{}, false, boom })
	if _, err := NewMerger([]Source{good, first}, nil); !errors.Is(err, boom) {
		t.Fatalf("NewMerger err = %v, want boom", err)
	}
}
