package simsync

import (
	"runtime"
	"sync"
	"testing"

	"predator/internal/core"
	"predator/internal/instr"
	"predator/internal/mem"
)

// env builds a heap + runtime + instrumenter with test thresholds.
func env(t *testing.T) (*instr.Instrumenter, *core.Runtime) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return instr.New(h, rt, instr.Policy{}), rt
}

func TestMutexPoolMutualExclusion(t *testing.T) {
	in, _ := env(t)
	main := in.NewThread("main")
	pool, err := NewMutexPool(main, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	counters := make([]int, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				lock := i % pool.Len()
				pool.With(th, lock, func() { counters[lock]++ })
			}
		}(th)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 4*2000 {
		t.Errorf("lost updates: %d", total)
	}
}

func TestPackedPoolFalselyShares(t *testing.T) {
	in, rt := env(t)
	main := in.NewThread("main")
	pool, err := NewMutexPool(main, 16, 4) // 16 locks in one cache line
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread, id int) {
			defer wg.Done()
			for i := 0; i < 8000; i++ {
				// Thread-affine locks: cross-lock contention only.
				lock := (id*4 + i%4) % pool.Len()
				pool.Lock(th, lock)
				pool.Unlock(th, lock)
				if i%16 == 15 {
					runtime.Gosched()
				}
			}
		}(th, w)
	}
	wg.Wait()
	rep := rt.Report()
	found := false
	for _, f := range rep.FalseSharing() {
		if obj, ok := f.PrimaryObject(); ok && obj.Start == pool.Base() {
			found = true
		}
	}
	if !found {
		t.Errorf("packed mutex pool not flagged:\n%s", rep.String())
	}
}

func TestPaddedPoolClean(t *testing.T) {
	in, rt := env(t)
	main := in.NewThread("main")
	pool, err := NewMutexPool(main, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		th := in.NewThread("w")
		wg.Add(1)
		go func(th *instr.Thread, id int) {
			defer wg.Done()
			for i := 0; i < 8000; i++ {
				lock := (id*4 + i%4) % pool.Len()
				pool.Lock(th, lock)
				pool.Unlock(th, lock)
				if i%16 == 15 {
					runtime.Gosched()
				}
			}
		}(th, w)
	}
	wg.Wait()
	if fs := rt.Report().FalseSharing(); len(fs) != 0 {
		t.Errorf("padded pool flagged: %d findings", len(fs))
	}
}

func TestConstructorValidation(t *testing.T) {
	in, _ := env(t)
	main := in.NewThread("main")
	if _, err := NewMutexPool(main, 0, 64); err == nil {
		t.Error("zero-size pool accepted")
	}
	if _, err := NewMutexPool(main, 4, 2); err == nil {
		t.Error("sub-word stride accepted")
	}
}
