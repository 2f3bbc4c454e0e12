// Package synthetic provides microbenchmark-style workloads exercising one
// sharing pattern each. They are the fixtures for the ablation studies
// (internal/eval/ablation.go) and for deterministic-mode tests: unlike the
// Phoenix/PARSEC kernels they isolate a single mechanism — write-write false
// sharing, read-write false sharing, true sharing, or a latent
// placement-sensitive pattern. They are registered in the harness under the
// "synthetic" suite but deliberately excluded from the paper's table/figure
// workload lists.
package synthetic

import (
	"sync"

	"predator/internal/harness"
	"predator/internal/instr"
	"predator/internal/workloads/wlutil"
)

// pattern is shared scaffolding for the four kernels.
type pattern struct {
	name, desc string
	hasFS      bool
	run        func(c *harness.Ctx) (uint64, error)
}

func (p pattern) Name() string                       { return p.name }
func (pattern) Suite() string                        { return "synthetic" }
func (p pattern) Description() string                { return p.desc }
func (p pattern) HasFalseSharing() bool              { return p.hasFS }
func (p pattern) Run(c *harness.Ctx) (uint64, error) { return p.run(c) }

func init() {
	harness.Register(pattern{name: "ww_share", hasFS: true,
		desc: "write-write false sharing: threads write adjacent words of one line",
		run:  runWW})
	harness.Register(pattern{name: "rw_share", hasFS: true,
		desc: "read-write false sharing: one thread writes, neighbours only read adjacent words",
		run:  runRW})
	harness.Register(pattern{name: "true_share", hasFS: false,
		desc: "true sharing: every thread updates the same word (real contention, not a false positive)",
		run:  runTrue})
	harness.Register(pattern{name: "latent_share", hasFS: true,
		desc: "latent false sharing: per-thread line-sized slots, clean now, falsely shared under shifted placement or doubled lines",
		run:  runLatent})
}

// slots allocates the per-thread word block for a pattern: packed when
// buggy, padded otherwise.
func slots(c *harness.Ctx, t *instr.Thread) (wlutil.StatsBlock, error) {
	return wlutil.NewStatsBlock(c, t, 8)
}

// iters is the per-thread access count at the context's scale.
func iters(c *harness.Ctx) int { return 20000 * c.Scale }

// runWW: the canonical bug — every thread hammers its own word.
func runWW(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	b, err := slots(c, main)
	if err != nil {
		return 0, err
	}
	n := iters(c)
	c.Parallel(c.Threads, "ww", func(t *instr.Thread, id int) {
		addr := b.Addr(id, 0)
		for i := 0; i < n; i++ {
			t.Store64(addr, uint64(i))
			c.MaybeYield(i)
		}
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		sum = wlutil.Mix64(sum, main.Load64(b.Addr(id, 0)))
	}
	return sum, nil
}

// runRW: thread 0 writes its word; all others only read their own words on
// the same line. Writes-only instrumentation (SHERIFF-style) cannot see the
// readers, so it misses this class entirely — the ablation's point.
func runRW(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	b, err := slots(c, main)
	if err != nil {
		return 0, err
	}
	for id := 0; id < c.Threads; id++ {
		main.Store64(b.Addr(id, 0), uint64(id)*7+1)
	}
	n := iters(c)
	var sink uint64
	c.Parallel(c.Threads, "rw", func(t *instr.Thread, id int) {
		addr := b.Addr(id, 0)
		var local uint64
		for i := 0; i < n; i++ {
			if id == 0 {
				t.Store64(addr, uint64(i))
			} else {
				local += t.Load64(addr)
			}
			c.MaybeYield(i)
		}
		if id == 1 {
			sink = local
		}
	})
	return wlutil.Mix64(sink, main.Load64(b.Addr(0, 0))), nil
}

// trueShareGap spaces true_share's words: farther apart than a doubled
// line, so that prediction sees no false sharing between them.
const trueShareGap = 256

// runTrue: all threads increment one shared word — real contention that the
// detector must classify as true sharing, never as false sharing. After each
// increment a thread also writes a word of its own, outside the lock, which
// gives the deterministic scheduler a point to hand on the turn while no
// thread holds the lock.
func runTrue(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	addr, err := main.AllocWithOffset(trueShareGap*uint64(c.Threads+1), 0)
	if err != nil {
		return 0, err
	}
	n := iters(c)
	// The lock keeps the simulated-heap bytes race-free for `go test -race`;
	// the detector never sees it and still observes every thread writing the
	// same word — the access PATTERN is the subject, not the sum.
	var mu sync.Mutex
	c.Parallel(c.Threads, "true", func(t *instr.Thread, id int) {
		own := addr + trueShareGap*uint64(id+1)
		for i := 0; i < n; i++ {
			t.Lock(&mu)
			t.Store64(addr, t.Load64(addr)+1)
			mu.Unlock()
			t.Store64(own, uint64(i))
			c.MaybeYield(i)
		}
	})
	return wlutil.Mix64(1, main.Load64(addr)), nil
}

// runLatent: each thread owns exactly one line (clean), with hot words at
// the line edges — the distilled linear_regression pattern that only
// prediction can catch.
func runLatent(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	size := uint64(64 * c.Threads)
	var addr uint64
	var err error
	if c.Offset != harness.UseDefaultOffset {
		addr, err = main.AllocWithOffset(size, c.Offset)
	} else {
		addr, err = main.AllocWithOffset(size, 0)
	}
	if err != nil {
		return 0, err
	}
	n := iters(c)
	c.Parallel(c.Threads, "latent", func(t *instr.Thread, id int) {
		// Hot words at both edges of the thread's private line.
		head := addr + uint64(id)*64
		tail := head + 56
		for i := 0; i < n; i++ {
			t.Store64(head, uint64(i))
			t.Store64(tail, uint64(i))
			c.MaybeYield(i)
		}
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		sum = wlutil.Mix64(sum, main.Load64(addr+uint64(id)*64))
	}
	return sum, nil
}
