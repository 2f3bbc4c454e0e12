package phoenix

import (
	"predator/internal/harness"
	"predator/internal/instr"
	"predator/internal/workloads/wlutil"
)

// pca reimplements the Phoenix pca kernel: per-column means and a band of
// the covariance matrix over a row-partitioned data matrix. Per-thread
// accumulators are padded (no Table 1 entry for pca), making this another
// clean workload with moderate write traffic.
type pca struct{}

func init() { harness.Register(pca{}) }

func (pca) Name() string  { return "pca" }
func (pca) Suite() string { return "phoenix" }
func (pca) Description() string {
	return "column means + covariance band over a row-partitioned matrix; clean"
}
func (pca) HasFalseSharing() bool { return false }

func (pca) Run(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	const cols = 16
	rowsPerThread := 600 * c.Scale
	rows := rowsPerThread * c.Threads

	m, err := main.Alloc(uint64(rows*cols) * 8)
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	for i := 0; i < rows*cols; i++ {
		main.StoreInt64(m+uint64(i)*8, int64(rng.Intn(256)))
	}

	// Per-thread accumulators: cols sums + cols covariance-band partial
	// products, padded to a 128-byte multiple that leaves at least one
	// 128-byte gap after the slot. A 256-byte slot in a 256-byte stride
	// has no gap: shift the object and one worker's last words share a
	// line with the next worker's first, which PREDATOR rightly predicts.
	const slot = cols * 8 * 2
	stride := uint64(wlutil.PaddedStride)
	for stride <= slot {
		stride += wlutil.PaddedStride
	}
	acc, err := main.Alloc(stride * uint64(c.Threads))
	if err != nil {
		return 0, err
	}

	c.Parallel(c.Threads, "pca", func(t *instr.Thread, id int) {
		base := acc + uint64(id)*stride
		lo, hi := wlutil.Partition(rows, c.Threads, id)
		for r := lo; r < hi; r++ {
			for col := 0; col < cols; col++ {
				v := t.LoadInt64(m + uint64(r*cols+col)*8)
				t.AddInt64(base+uint64(col)*8, v)
				// Covariance band: product with the next column.
				next := t.LoadInt64(m + uint64(r*cols+(col+1)%cols)*8)
				t.AddInt64(base+uint64(cols+col)*8, v*next)
			}
			c.MaybeYield(r)
		}
	})

	var sum uint64
	for id := 0; id < c.Threads; id++ {
		for col := 0; col < 2*cols; col++ {
			sum = wlutil.Mix64(sum, uint64(main.LoadInt64(acc+uint64(id)*stride+uint64(col)*8)))
		}
	}
	return sum, nil
}
