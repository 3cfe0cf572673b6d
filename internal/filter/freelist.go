package filter

// FreeList recycles the structs of a per-stream lifecycle: what a
// stream's teardown leaves behind builds the next stream without the
// allocator. It belongs to one proxy (or to one of its loaded
// factories) and is used from that proxy's goroutine only.
//
// The list holds only what was live at once, and it does not keep a
// burst's worth for ever: entries that nobody took during a whole
// turnover of the list — as many Puts as it is long — are left to the
// collector. A steady load keeps exactly the working set it cycles
// through.
type FreeList[T any] struct {
	items []*T
	idle  int // items[:idle] have not been taken since the last trim
	puts  int // Puts since the last trim
}

// Get takes the most recently returned entry, or nil when there is none
// and the caller has to build one.
func (f *FreeList[T]) Get() *T {
	n := len(f.items) - 1
	if n < 0 {
		return nil
	}
	x := f.items[n]
	f.items[n] = nil
	f.items = f.items[:n]
	f.idle = min(f.idle, n)
	return x
}

// Put returns an entry, which the caller has reset.
func (f *FreeList[T]) Put(x *T) {
	f.items = append(f.items, x)
	if f.puts++; f.puts < len(f.items) {
		return
	}
	if f.idle > 0 {
		n := copy(f.items, f.items[f.idle:])
		clear(f.items[n:])
		f.items = f.items[:n]
	}
	f.idle, f.puts = len(f.items), 0
}

// Len is the number of entries held.
func (f *FreeList[T]) Len() int { return len(f.items) }
