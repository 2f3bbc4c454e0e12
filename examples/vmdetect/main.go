// Binary-instrumentation-style detection (paper §5.1): instead of calling
// instrumented accessors explicitly, this example assembles a tiny program
// for the repository's register VM, which inspects every executed load and
// store and reports it to PREDATOR automatically — the Valgrind/Pin model.
// It also demonstrates §2.2's stack policy: the counter loop run against
// each thread's private stack is invisible by default and only appears when
// stack instrumentation is switched on.
//
//	go run ./examples/vmdetect
package main

import (
	"fmt"
	"log"
	"sync"

	"predator/internal/core"
	"predator/internal/instr"
	"predator/internal/mem"
	"predator/internal/sched"
	"predator/internal/vm"
)

// counter increments mem64[r1] r2 times.
const counter = `
	li   r3, 0
loop:
	ld   r4, r1, 0
	addi r4, r4, 1
	st   r4, r1, 0
	addi r3, r3, 1
	blt  r3, r2, loop
	halt
`

// stackCounter does the same against the thread's own stack (r15).
const stackCounter = `
	li   r3, 0
loop:
	ld   r4, r15, 0
	addi r4, r4, 1
	st   r4, r15, 0
	addi r3, r3, 1
	blt  r3, r2, loop
	halt
`

func runPair(instrumentStack bool, program string, shared bool) {
	h, err := mem.NewHeap(mem.Config{Size: 8 << 20})
	if err != nil {
		log.Fatal(err)
	}
	rt, err := core.NewRuntime(h, core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	})
	if err != nil {
		log.Fatal(err)
	}
	in := instr.New(h, rt, instr.Policy{})
	machine := vm.New(h, vm.Config{InstrumentStack: instrumentStack, YieldEvery: 16})
	prog := vm.MustAssemble(program)

	main := in.NewThread("main")
	obj, err := h.AllocWithOffset(main.ID(), 64, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	// The two VM threads run on the deterministic scheduler, so they
	// interleave however the host schedules goroutines.
	s := sched.New(16)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		th := in.NewThread(fmt.Sprintf("vm-%d", w))
		slot := s.Register()
		th.SetSlot(slot)
		word := obj + uint64(w)*8
		wg.Add(1)
		go func(th *instr.Thread, slot *sched.Slot, word uint64) {
			defer wg.Done()
			defer slot.Done()
			slot.WaitTurn()
			if _, err := machine.Run(th, prog, int64(word), 20000); err != nil {
				log.Fatal(err)
			}
		}(th, slot, word)
	}
	s.Start()
	wg.Wait()
	stats := rt.Stats()
	fmt.Printf("  accesses seen by runtime: %-7d false sharing problems: %d\n",
		stats.Accesses, len(rt.Report().FalseSharing()))
	_ = shared
}

func main() {
	fmt.Println("heap counters in one cache line (classic false sharing):")
	runPair(false, counter, true)

	fmt.Println("same loop against private stacks, stack instrumentation OFF (paper default):")
	runPair(false, stackCounter, false)

	fmt.Println("same loop, stack instrumentation ON (paper: 'can always be turned on'):")
	runPair(true, stackCounter, false)
}
