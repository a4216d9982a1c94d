package freelist

import "testing"

// TestListBoundedReuse: a returned buffer is the next one handed out, the
// list keeps no more than its bound, and a buffer of another capacity is
// not kept.
func TestListBoundedReuse(t *testing.T) {
	l := New(64, 2)
	a, b, c := l.Get(), l.Get(), l.Get()
	if len(a) != 64 || cap(a) != 64 {
		t.Fatalf("Get returned len %d cap %d, want 64/64", len(a), cap(a))
	}
	l.Put(a[:10])
	if got := l.Get(); &got[0] != &a[0] || len(got) != 64 {
		t.Fatal("Get did not hand back the buffer just returned, at full length")
	}
	l.Put(a)
	l.Put(b)
	l.Put(c)
	l.Put(make([]byte, 128))
	if n := l.Len(); n != 2 {
		t.Fatalf("Len = %d after four Puts, want the bound 2", n)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); allocs != 0 {
		t.Fatalf("a Get/Put cycle allocates %v times, want 0", allocs)
	}
}
