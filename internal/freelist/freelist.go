// Package freelist keeps a bounded list of fixed-size byte buffers for
// reuse. It is what the WAL's append blocks and the SSTable writers'
// streaming buffers are recycled through: unlike a sync.Pool, a
// list keeps what it holds across garbage collections and across Ps, so a
// buffer returned is the next one handed out, and its bound caps what an
// idle process retains.
package freelist

import "sync"

// List recycles buffers of one size. It is safe for concurrent use.
type List struct {
	mu   sync.Mutex
	size int
	free [][]byte
}

// New returns a list of size-byte buffers that retains at most max of them.
func New(size, max int) *List {
	return &List{size: size, free: make([][]byte, 0, max)}
}

// Get returns a free buffer, or a new one when none is free. Its length
// and capacity are the list's size; its contents are whatever the last
// user left.
func (l *List) Get() []byte {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return b
	}
	l.mu.Unlock()
	return make([]byte, l.size)
}

// Put hands b back for reuse. A buffer of another capacity (a one-off for
// an outsized record) or one past the bound is left to the collector. The
// caller must not touch b afterwards.
func (l *List) Put(b []byte) {
	if cap(b) != l.size {
		return
	}
	l.mu.Lock()
	if len(l.free) < cap(l.free) {
		l.free = append(l.free, b[:l.size])
	}
	l.mu.Unlock()
}

// Len reports how many buffers the list holds.
func (l *List) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}
