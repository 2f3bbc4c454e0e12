// Package simsync provides pthread-style synchronization primitives whose
// state lives ON the simulated heap, accessed through the instrumented
// accessors. In the paper's setting this is automatic — pthread mutexes are
// ordinary memory, so the instrumentation sees every lock-word access and
// PREDATOR can catch false sharing *among the synchronization objects
// themselves* (the Boost spinlock pool is exactly that). Here a MutexPool
// makes that pattern reusable: the detector observes the same lock-word
// traffic a native pthread program would generate.
//
// Real mutual exclusion is provided by shadow Go mutexes; the simulated
// lock words carry the access pattern. Packed layouts (stride = word size)
// reproduce the contended-pool bug; padded layouts are the fix.
package simsync

import (
	"fmt"
	"sync"

	"predator/internal/instr"
)

// MutexPool is an array of simulated mutexes, boost::detail::spinlock_pool
// style. Each lock occupies Stride bytes starting at Base.
type MutexPool struct {
	base   uint64
	stride uint64
	n      int
	shadow []sync.Mutex
}

// NewMutexPool allocates n lock words with the given stride (4 = packed,
// the Boost bug; >= 128 = padded, the fix) from the thread's arena.
func NewMutexPool(t *instr.Thread, n int, stride uint64) (*MutexPool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("simsync: pool size must be positive, got %d", n)
	}
	if stride < 4 {
		return nil, fmt.Errorf("simsync: stride %d below lock word size", stride)
	}
	base, err := t.AllocWithOffset(stride*uint64(n), 0)
	if err != nil {
		return nil, err
	}
	return &MutexPool{base: base, stride: stride, n: n, shadow: make([]sync.Mutex, n)}, nil
}

// Len returns the number of locks in the pool.
func (p *MutexPool) Len() int { return p.n }

// Base returns the pool's starting address (for report assertions).
func (p *MutexPool) Base() uint64 { return p.base }

// addr returns lock i's word address.
func (p *MutexPool) addr(i int) uint64 { return p.base + uint64(i)*p.stride }

// Lock acquires lock i on behalf of thread t, emitting the test-and-set
// access pattern a native spinlock would.
func (p *MutexPool) Lock(t *instr.Thread, i int) {
	t.Lock(&p.shadow[i])
	// With the shadow mutex held the simulated word is always free; the
	// load+store pair is the uncontended fast path every spinlock runs.
	for t.Load32(p.addr(i)) != 0 {
	}
	t.Store32(p.addr(i), 1)
}

// Unlock releases lock i.
func (p *MutexPool) Unlock(t *instr.Thread, i int) {
	t.Store32(p.addr(i), 0)
	p.shadow[i].Unlock()
}

// With runs fn under lock i.
func (p *MutexPool) With(t *instr.Thread, i int, fn func()) {
	p.Lock(t, i)
	defer p.Unlock(t, i)
	fn()
}
