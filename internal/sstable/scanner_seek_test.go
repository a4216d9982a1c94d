package sstable

import (
	"bytes"
	"sort"
	"testing"

	"papyruskv/internal/memtable"
)

// collectFrom drains a scanner after SeekRange(start, nil) and returns the
// keys.
func collectFrom(t *testing.T, sc *Scanner, start []byte) []string {
	t.Helper()
	var got []string
	for _, e := range scanRange(t, sc, start, nil) {
		got = append(got, string(e.Key))
	}
	return got
}

// seekOracle returns the sorted-suffix answer an unbounded seek must match.
func seekOracle(entries []memtable.Entry, start []byte) []string {
	var want []string
	for _, e := range entries {
		if bytes.Compare(e.Key, start) >= 0 {
			want = append(want, string(e.Key))
		}
	}
	return want
}

func TestScannerSeekGE(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(300, 7)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	starts := [][]byte{
		nil,
		[]byte(""),
		[]byte("key-00000000"),      // before the first key
		entries[0].Key,              // exactly the first
		entries[150].Key,            // an exact middle hit
		append(entries[150].Key, 0), // just past a middle key
		entries[299].Key,            // exactly the last
		[]byte("key-ffffffffff"),    // past every key
	}
	fences := mustLoadIndex(t, dev, "db/r0", 1).keys
	if len(fences) < 2 {
		t.Fatalf("table has %d blocks, want several", len(fences))
	}
	for i, fence := range fences[1:] {
		j := sort.Search(len(entries), func(j int) bool { return bytes.Compare(entries[j].Key, fence) >= 0 })
		starts = append(starts,
			fence,                         // exactly a block's first key
			entries[j-1].Key,              // the last key of the block before it
			append(entries[j-1].Key, 0),   // between the two blocks
			append(bytes.Clone(fence), 0), // just inside the block
		)
		if i == len(fences)-2 {
			starts = append(starts, append(entries[len(entries)-1].Key, 0)) // in the last block, past its last key
		}
	}
	sc, err := NewScanner(dev, "db/r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for _, start := range starts {
		want := seekOracle(entries, start)
		got := collectFrom(t, &sc, start)
		if len(got) != len(want) {
			t.Fatalf("SeekRange(%q, nil): %d keys, want %d", start, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("SeekRange(%q, nil)[%d] = %s, want %s", start, i, got[i], want[i])
			}
		}
	}
}

// TestScannerSeekGECorruptIndexFallback: a trashed SSIndex must degrade the
// seek to a forward decode — same answers, no error — because the scan's
// correctness never depended on the index, only its speed.
func TestScannerSeekGECorruptIndexFallback(t *testing.T) {
	dev := testDev(t)
	entries := sortedEntries(120, 9)
	if _, err := WriteTable(dev, "db/r0", 1, entries); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(){
		"garbage": func() { dev.WriteFile(IndexName("db/r0", 1), []byte("not an index")) },
		"missing": func() { dev.Remove(IndexName("db/r0", 1)) },
	} {
		t.Run(name, func(t *testing.T) {
			corrupt()
			sc, err := NewScanner(dev, "db/r0", 1)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			for _, start := range [][]byte{nil, entries[60].Key, []byte("zzz")} {
				want := seekOracle(entries, start)
				got := collectFrom(t, &sc, start)
				if len(got) != len(want) {
					t.Fatalf("degraded SeekRange(%q, nil): %d keys, want %d", start, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("degraded SeekRange(%q, nil)[%d] = %s, want %s", start, i, got[i], want[i])
					}
				}
			}
		})
	}
}
