package bch

import "sync"

// freeList is a mutex-guarded stack of reusable scratch values. Unlike
// sync.Pool it is never emptied by a garbage collection or a GOMAXPROCS
// change, so once the peak number of concurrent users has been reached
// get and put never allocate again. The critical section is a slice
// push or pop, far below the cost of the encode or decode it serves.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
	new   func() *T
}

// get pops a free value, building a new one when the list is empty.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	if n := len(f.items); n > 0 {
		v := f.items[n-1]
		f.items = f.items[:n-1]
		f.mu.Unlock()
		return v
	}
	f.mu.Unlock()
	return f.new()
}

// put returns a value for reuse.
func (f *freeList[T]) put(v *T) {
	f.mu.Lock()
	f.items = append(f.items, v)
	f.mu.Unlock()
}
