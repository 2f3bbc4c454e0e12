package vm

import (
	"strings"
	"sync"
	"testing"

	"predator/internal/core"
	"predator/internal/instr"
	"predator/internal/mem"
	"predator/internal/sched"
)

// env builds heap + runtime + instrumenter with small thresholds.
func env(t *testing.T) (*mem.Heap, *core.Runtime, *instr.Instrumenter) {
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
	return h, rt, instr.New(h, rt, instr.Policy{})
}

// sumProgram sums n consecutive 64-bit words starting at r1, leaving the
// total in r5. r2 = n.
const sumProgram = `
	li   r3, 0        // i
	li   r5, 0        // sum
loop:
	mul  r6, r3, r7   // byte offset = i * 8 ... r7 preset to 8
	add  r6, r6, r1
	ld   r4, r6, 0
	add  r5, r5, r4
	addi r3, r3, 1
	blt  r3, r2, loop
	halt
`

func TestAssembleAndRunSum(t *testing.T) {
	h, _, in := env(t)
	th := in.NewThread("main")
	arr, _ := th.Alloc(80)
	want := int64(0)
	for i := 0; i < 10; i++ {
		th.StoreInt64(arr+uint64(i)*8, int64(i*i))
		want += int64(i * i)
	}
	prog, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	v := New(h, Config{})
	// The program expects r7 = 8 (the word size multiplier).
	res, err := v.Run(th, prog, int64(arr), 10, 0, 0, 0, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regs[5] != want {
		t.Errorf("sum = %d, want %d", res.Regs[5], want)
	}
	if res.HeapLoads != 10 {
		t.Errorf("heap loads = %d, want 10", res.HeapLoads)
	}
}

// counterProgram increments mem64[r1] n times (r2 = n).
const counterProgram = `
	li   r3, 0
loop:
	ld   r4, r1, 0
	addi r4, r4, 1
	st   r4, r1, 0
	addi r3, r3, 1
	blt  r3, r2, loop
	halt
`

func TestVMFalseSharingDetected(t *testing.T) {
	h, rt, in := env(t)
	main := in.NewThread("main")
	obj, err := h.AllocWithOffset(main.ID(), 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	prog := MustAssemble(counterProgram)
	v := New(h, Config{YieldEvery: 16})
	// The two VM threads run on the deterministic scheduler, so they
	// interleave on the counter line however the host schedules goroutines.
	s := sched.New(16)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		th := in.NewThread("w")
		slot := s.Register()
		th.SetSlot(slot)
		wg.Add(1)
		go func(th *instr.Thread, slot *sched.Slot, word uint64) {
			defer wg.Done()
			defer slot.Done()
			slot.WaitTurn()
			if _, err := v.Run(th, prog, int64(word), 20000); err != nil {
				t.Error(err)
			}
		}(th, slot, obj+uint64(w)*8)
	}
	s.Start()
	wg.Wait()
	if len(rt.Report().FalseSharing()) == 0 {
		t.Error("VM-driven false sharing not detected")
	}
	// The program's result is correct too.
	if got := main.LoadInt64(obj); got != 20000 {
		t.Errorf("counter = %d, want 20000", got)
	}
}

// stackProgram hammers the thread's private stack (r15 = stack base).
const stackProgram = `
	li   r3, 0
loop:
	ld   r4, r15, 16
	addi r4, r4, 1
	st   r4, r15, 16
	addi r3, r3, 1
	blt  r3, r2, loop
	halt
`

func TestStackAccessesOmittedByDefault(t *testing.T) {
	h, rt, in := env(t)
	th := in.NewThread("w")
	v := New(h, Config{})
	res, err := v.Run(th, MustAssemble(stackProgram), 0, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.StackLoads != 5000 || res.StackStores != 5000 {
		t.Errorf("stack traffic = %d/%d", res.StackLoads, res.StackStores)
	}
	if res.HeapLoads != 0 || res.HeapStores != 0 {
		t.Errorf("heap traffic = %d/%d, want none", res.HeapLoads, res.HeapStores)
	}
	// Paper §2.2: stack accesses are not reported by default.
	if got := rt.Stats().Accesses; got != 0 {
		t.Errorf("runtime saw %d accesses, want 0 (stack omitted)", got)
	}
}

func TestStackInstrumentationToggle(t *testing.T) {
	h, rt, in := env(t)
	th := in.NewThread("w")
	v := New(h, Config{InstrumentStack: true})
	if _, err := v.Run(th, MustAssemble(stackProgram), 0, 5000); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Accesses; got != 10000 {
		t.Errorf("runtime saw %d accesses, want 10000 (stack instrumented)", got)
	}
	// Thread-private stacks never falsely share, even when instrumented —
	// the allocator keeps arenas line-disjoint (paper's rationale for the
	// default).
	if fs := rt.Report().FalseSharing(); len(fs) != 0 {
		t.Errorf("stack traffic misreported as false sharing: %d findings", len(fs))
	}
}

func TestVMErrors(t *testing.T) {
	h, _, in := env(t)
	th := in.NewThread("w")
	v := New(h, Config{MaxSteps: 100})
	// Infinite loop trips MaxSteps.
	if _, err := v.Run(th, MustAssemble("loop:\n jmp loop")); err == nil {
		t.Error("infinite loop not caught")
	}
	// Out-of-heap store.
	if _, err := v.Run(th, MustAssemble("li r1, 64\n st r1, r1, 0\n halt")); err == nil {
		t.Error("wild store not caught")
	}
	// Falling off the end of the program.
	if _, err := v.Run(th, Program{{Op: OpNop}}); err == nil {
		t.Error("running past program end not caught")
	}
	// Unknown opcode.
	if _, err := v.Run(th, Program{{Op: Op(200)}}); err == nil {
		t.Error("unknown opcode not caught")
	}
	// Too many args.
	if _, err := v.Run(th, MustAssemble("halt"), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15); err == nil {
		t.Error("too many args accepted")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2",
		"li r99, 5",
		"li r1",
		"ld r1, r2, zebra",
		"jmp nowhere",
		"dup:\n dup:\n halt",
		"blt r1, r2",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled invalid source %q", src)
		}
	}
}

func TestAssembleCommentsAndLabels(t *testing.T) {
	prog, err := Assemble(`
		; semicolon comment
		li r1, 0x10   // hex immediate
	top:
		addi r1, r1, -1
		bne r1, r0, top
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 4 {
		t.Fatalf("prog = %d instructions", len(prog))
	}
	if prog[0].Imm != 16 {
		t.Errorf("hex imm = %d", prog[0].Imm)
	}
	if prog[2].Imm != 1 { // bne jumps to instruction index 1
		t.Errorf("branch target = %d", prog[2].Imm)
	}
	if !strings.Contains(MustAssemble("halt")[0].String(), "halt") {
		t.Error("Instruction.String broken")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic")
		}
	}()
	MustAssemble("nonsense")
}

func BenchmarkVMStep(b *testing.B) {
	h, _ := mem.NewHeap(mem.Config{Size: 4 << 20})
	in := instr.New(h, nil, instr.Policy{})
	th := in.NewThread("b")
	v := New(h, Config{YieldEvery: 1 << 30, MaxSteps: 1 << 62})
	arr, _ := th.Alloc(64)
	prog := MustAssemble(counterProgram)
	b.ResetTimer()
	// One execution of b.N loop iterations (~5 instructions each): a
	// single stack allocation regardless of b.N.
	if _, err := v.Run(th, prog, int64(arr), int64(b.N)); err != nil {
		b.Fatal(err)
	}
}
