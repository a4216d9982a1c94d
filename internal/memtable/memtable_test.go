package memtable

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	m := New()
	m.Put(Entry{Key: []byte("k"), Value: []byte("v")})
	e, ok := m.Get([]byte("k"))
	if !ok || string(e.Value) != "v" || e.Tombstone {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := m.Get([]byte("absent")); ok {
		t.Fatal("Get(absent) found")
	}
}

func TestPutReplacesAndAccountsBytes(t *testing.T) {
	m := New()
	m.Put(Entry{Key: []byte("k"), Value: make([]byte, 100)})
	b1 := m.Bytes()
	m.Put(Entry{Key: []byte("k"), Value: make([]byte, 10)})
	b2 := m.Bytes()
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if b2 >= b1 {
		t.Fatalf("bytes did not shrink on replace: %d -> %d", b1, b2)
	}
	want := int64(1 + 10 + entryOverhead)
	if b2 != want {
		t.Fatalf("Bytes = %d, want %d", b2, want)
	}
}

func TestTombstone(t *testing.T) {
	m := New()
	m.Put(Entry{Key: []byte("k"), Value: []byte("v")})
	m.Put(Entry{Key: []byte("k"), Tombstone: true})
	e, ok := m.Get([]byte("k"))
	if !ok || !e.Tombstone {
		t.Fatalf("tombstone lookup = %+v, %v", e, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (tombstones are entries)", m.Len())
	}
}

func TestSeal(t *testing.T) {
	m := New()
	m.Put(Entry{Key: []byte("a"), Value: []byte("1")})
	m.Seal()
	if !m.Sealed() {
		t.Fatal("Sealed = false")
	}
	if m.Put(Entry{Key: []byte("b")}) {
		t.Fatal("Put on sealed table succeeded")
	}
	if _, ok := m.Get([]byte("a")); !ok {
		t.Fatal("sealed table lost reads")
	}
}

func TestAscendSorted(t *testing.T) {
	m := New()
	for _, k := range []string{"delta", "alpha", "charlie", "bravo"} {
		m.Put(Entry{Key: []byte(k), Value: []byte(k)})
	}
	var got []string
	m.Ascend(func(e Entry) bool {
		got = append(got, string(e.Key))
		return true
	})
	want := []string{"alpha", "bravo", "charlie", "delta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend order %v", got)
		}
	}
}

func TestEntriesSnapshot(t *testing.T) {
	m := New()
	m.Put(Entry{Key: []byte("b"), Value: []byte("2")})
	m.Put(Entry{Key: []byte("a"), Value: []byte("1")})
	es := m.Entries()
	if len(es) != 2 || string(es[0].Key) != "a" || string(es[1].Key) != "b" {
		t.Fatalf("Entries = %+v", es)
	}
}

func TestByOwner(t *testing.T) {
	m := New()
	for i := 0; i < 12; i++ {
		m.Put(Entry{Key: []byte(fmt.Sprintf("key%02d", i)), Value: []byte("v"), Owner: i % 3})
	}
	groups := m.ByOwner()
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for owner, es := range groups {
		total += len(es)
		prev := []byte(nil)
		for _, e := range es {
			if e.Owner != owner {
				t.Fatalf("entry %q in wrong group %d", e.Key, owner)
			}
			if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
				t.Fatalf("group %d not sorted", owner)
			}
			prev = e.Key
		}
	}
	if total != 12 {
		t.Fatalf("total grouped = %d", total)
	}
}

func TestGetReturnsCopyOfStruct(t *testing.T) {
	m := New()
	m.Put(Entry{Key: []byte("k"), Value: []byte("v"), Owner: 7})
	e, _ := m.Get([]byte("k"))
	e.Owner = 99
	e2, _ := m.Get([]byte("k"))
	if e2.Owner != 7 {
		t.Fatal("Get result aliases stored entry struct")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	in := []Entry{
		{Key: []byte("a"), Value: []byte("value-a")},
		{Key: []byte("b"), Value: nil, Tombstone: true},
		{Key: []byte{}, Value: []byte("empty-key")},
		{Key: []byte("bin\x00key"), Value: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	out, err := DecodeEntries(EncodeEntries(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) || out[i].Tombstone != in[i].Tombstone {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := DecodeEntries(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := DecodeEntries([]byte{5, 0, 0, 0}); err == nil {
		t.Fatal("truncated header decoded")
	}
	// count=1, klen=100 but no body
	bad := []byte{1, 0, 0, 0, 100, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := DecodeEntries(bad); err == nil {
		t.Fatal("truncated body decoded")
	}
	// A count no entry header backs must fail before it sizes anything.
	if _, err := DecodeEntries([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("4G-entry count decoded")
	}
	one := EncodeEntries([]Entry{{Key: []byte("k"), Value: []byte("v")}})
	if _, err := DecodeEntries(append(bytes.Clone(one), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	one[12] = 2 // flags of the only entry
	if _, err := DecodeEntries(one); err == nil {
		t.Fatal("unknown flag bit decoded")
	}
}

func TestQuickCodec(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte, tombs []bool) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if len(tombs) < n {
			n = len(tombs)
		}
		in := make([]Entry, n)
		for i := 0; i < n; i++ {
			in[i] = Entry{Key: keys[i], Value: vals[i], Tombstone: tombs[i]}
		}
		out, err := DecodeEntries(EncodeEntries(in))
		if err != nil || len(out) != n {
			return false
		}
		for i := range in {
			if !bytes.Equal(out[i].Key, in[i].Key) || !bytes.Equal(out[i].Value, in[i].Value) || out[i].Tombstone != in[i].Tombstone {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := []byte(fmt.Sprintf("g%d-%d", g, i))
				m.Put(Entry{Key: k, Value: k})
				if _, ok := m.Get(k); !ok {
					t.Errorf("lost %s", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if m.Len() != 2000 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func BenchmarkPut128B(b *testing.B) {
	m := New()
	val := make([]byte, 128)
	for i := 0; i < b.N; i++ {
		m.Put(Entry{Key: []byte(fmt.Sprintf("%016d", i)), Value: val})
	}
}

// TestPutCopiesCallerBuffers is the aliasing regression test: a caller that
// reuses its key/value buffers after Put (the WAL replay loop and the
// migration batch handler both decode into reused frames) must not be able
// to corrupt the stored pair. (Get's results alias the table under a
// read-only contract; core's Get copies once at the API edge, which
// TestGetResultIsCallerOwned pins.)
func TestPutCopiesCallerBuffers(t *testing.T) {
	m := New()
	key := []byte("shared-key")
	val := []byte("shared-val")
	m.Put(Entry{Key: key, Value: val})

	// Caller reuses its buffers — the decode-buffer pattern.
	copy(key, "XXXXXXXXXX")
	copy(val, "YYYYYYYYYY")
	e, ok := m.Get([]byte("shared-key"))
	if !ok {
		t.Fatal("key vanished after the caller scribbled its buffers")
	}
	if string(e.Key) != "shared-key" || string(e.Value) != "shared-val" {
		t.Fatalf("stored pair aliases caller memory: key=%q value=%q", e.Key, e.Value)
	}
}

func TestAscendFromAndSnapshotRange(t *testing.T) {
	m := New()
	for _, k := range []string{"b", "d", "f", "h"} {
		m.Put(Entry{Key: []byte(k), Value: []byte("v" + k)})
	}
	var got []string
	m.AscendFrom([]byte("c"), func(e Entry) bool {
		got = append(got, string(e.Key))
		return true
	})
	if fmt.Sprint(got) != "[d f h]" {
		t.Fatalf("AscendFrom(c) = %v", got)
	}
	snap := m.SnapshotRange([]byte("c"), []byte("h"))
	if len(snap) != 2 || string(snap[0].Key) != "d" || string(snap[1].Key) != "f" {
		t.Fatalf("SnapshotRange(c,h) = %v", snap)
	}
	// The snapshot is a point-in-time view: later puts (including
	// overwrites) must not show through.
	m.Put(Entry{Key: []byte("e"), Value: []byte("new")})
	m.Put(Entry{Key: []byte("d"), Value: []byte("overwritten")})
	if len(snap) != 2 || string(snap[0].Value) != "vd" {
		t.Fatalf("snapshot mutated by later puts: %v", snap)
	}
}

func TestSealedCursor(t *testing.T) {
	m := New()
	for _, k := range []string{"a", "c", "e"} {
		m.Put(Entry{Key: []byte(k), Value: []byte("v" + k)})
	}
	m.Seal()
	c := m.CursorFrom([]byte("b"))
	var got []string
	for c.Valid() {
		got = append(got, string(c.Entry().Key))
		c.Next()
	}
	if fmt.Sprint(got) != "[c e]" {
		t.Fatalf("sealed cursor from b = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CursorFrom on an unsealed table did not panic")
		}
	}()
	New().CursorFrom(nil)
}
