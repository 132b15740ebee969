package kernel

import (
	"errors"
	"strings"
	"testing"

	"emeralds/internal/costmodel"
	"emeralds/internal/sched"
	"emeralds/internal/task"
	"emeralds/internal/trace"
	"emeralds/internal/vtime"
)

func newEDFKernel(t *testing.T, prof *costmodel.Profile) *Kernel {
	t.Helper()
	if prof == nil {
		prof = costmodel.Zero()
	}
	k, err := New(nil, Options{Profile: prof, Scheduler: sched.NewEDF(prof), OptimizedSem: true})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newRMKernel(t *testing.T, prof *costmodel.Profile, optimized bool) *Kernel {
	t.Helper()
	if prof == nil {
		prof = costmodel.Zero()
	}
	k, err := New(nil, Options{Profile: prof, Scheduler: sched.NewRM(prof), OptimizedSem: optimized})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func boot(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
}

func TestPeriodicExecutionExactTimes(t *testing.T) {
	k := newEDFKernel(t, nil)
	th := k.AddTask(task.Spec{Name: "a", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
	boot(t, k)
	k.Run(100 * vtime.Millisecond)
	tcb := th.TCB
	if tcb.Releases != 11 { // t = 0, 10, …, 100 inclusive
		t.Errorf("releases = %d", tcb.Releases)
	}
	if tcb.Completions != 10 { // the job released at t=100 has no time to run
		t.Errorf("completions = %d", tcb.Completions)
	}
	// With zero overhead, every response is exactly the WCET.
	if tcb.MaxResp != 2*vtime.Millisecond || tcb.AvgResp() != 2*vtime.Millisecond {
		t.Errorf("responses: avg %v max %v", tcb.AvgResp(), tcb.MaxResp)
	}
	if tcb.Misses != 0 {
		t.Errorf("misses = %d", tcb.Misses)
	}
}

func TestPhaseDelaysFirstRelease(t *testing.T) {
	k := newEDFKernel(t, nil)
	th := k.AddTask(task.Spec{
		Period: 10 * vtime.Millisecond,
		WCET:   vtime.Millisecond,
		Phase:  7 * vtime.Millisecond,
	})
	boot(t, k)
	k.Run(20 * vtime.Millisecond)
	if th.TCB.Releases != 2 { // at 7 ms and 17 ms
		t.Errorf("releases = %d", th.TCB.Releases)
	}
}

func TestPreemptionByShorterDeadline(t *testing.T) {
	k := newEDFKernel(t, nil)
	long := k.AddTask(task.Spec{Name: "long", Period: 100 * vtime.Millisecond, WCET: 20 * vtime.Millisecond})
	short := k.AddTask(task.Spec{
		Name: "short", Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond,
		Phase: 5 * vtime.Millisecond,
	})
	boot(t, k)
	k.Run(100 * vtime.Millisecond)
	if short.TCB.Misses != 0 {
		t.Errorf("short missed %d deadlines", short.TCB.Misses)
	}
	if short.TCB.MaxResp != 2*vtime.Millisecond {
		t.Errorf("short max resp = %v, must always preempt", short.TCB.MaxResp)
	}
	if long.TCB.Preemptions == 0 {
		t.Error("long was never preempted")
	}
	// Long still finishes: 20 ms work + 2 ms interference per 10 ms.
	if long.TCB.Completions != 1 {
		t.Errorf("long completions = %d", long.TCB.Completions)
	}
}

func TestUtilizationOneMeetsAllDeadlinesUnderEDF(t *testing.T) {
	k := newEDFKernel(t, nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 5 * vtime.Millisecond})
	k.AddTask(task.Spec{Period: 20 * vtime.Millisecond, WCET: 10 * vtime.Millisecond})
	boot(t, k)
	k.Run(200 * vtime.Millisecond)
	st := k.Stats()
	if st.Misses != 0 {
		t.Errorf("misses = %d at U=1 under ideal EDF", st.Misses)
	}
	// The CPU must have been saturated: useful = horizon.
	if st.UsefulCompute != 200*vtime.Millisecond {
		t.Errorf("useful = %v", st.UsefulCompute)
	}
}

func TestOverloadCountsMissesAndOverruns(t *testing.T) {
	k := newEDFKernel(t, nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 8 * vtime.Millisecond})
	boot(t, k)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.Misses == 0 {
		t.Error("overloaded system reported no misses")
	}
	if st.Overruns == 0 {
		t.Error("overloaded system reported no overruns")
	}
}

func TestDeadlineShorterThanPeriod(t *testing.T) {
	k := newEDFKernel(t, nil)
	// Response is 5 ms; a 4 ms deadline must miss, a 6 ms one must not.
	tight := k.AddTask(task.Spec{
		Name: "tight", Period: 20 * vtime.Millisecond, WCET: 5 * vtime.Millisecond,
		Deadline: 4 * vtime.Millisecond,
	})
	boot(t, k)
	k.Run(40 * vtime.Millisecond)
	if tight.TCB.Misses != tight.TCB.Completions {
		t.Errorf("tight: %d misses of %d jobs", tight.TCB.Misses, tight.TCB.Completions)
	}
}

func TestSchedulerOverheadChargedAgainstRunningTask(t *testing.T) {
	prof := costmodel.M68040()
	k := newEDFKernel(t, prof)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: 2 * vtime.Millisecond})
	boot(t, k)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.SchedCharge == 0 || st.TimerCharge == 0 || st.SwitchCharge == 0 {
		t.Errorf("charges: sched=%v timer=%v switch=%v", st.SchedCharge, st.TimerCharge, st.SwitchCharge)
	}
	// Overhead stretches responses beyond the pure WCET.
	th := k.Threads()[0]
	if th.TCB.MaxResp <= 2*vtime.Millisecond {
		t.Errorf("max resp %v should exceed the pure WCET", th.TCB.MaxResp)
	}
}

func TestAperiodicRelease(t *testing.T) {
	k := newEDFKernel(t, nil)
	ap := k.AddTask(task.Spec{
		Name: "ap", Period: 0, Deadline: 5 * vtime.Millisecond,
		Prog: task.Program{task.Compute(vtime.Millisecond)},
	})
	boot(t, k)
	k.Engine().At(vtime.Time(3*vtime.Millisecond), "fire", func() { k.ReleaseAperiodic(ap) })
	k.Engine().At(vtime.Time(30*vtime.Millisecond), "fire", func() { k.ReleaseAperiodic(ap) })
	k.Run(50 * vtime.Millisecond)
	if ap.TCB.Completions != 2 {
		t.Errorf("completions = %d", ap.TCB.Completions)
	}
	if ap.TCB.Misses != 0 {
		t.Errorf("misses = %d", ap.TCB.Misses)
	}
}

func TestAperiodicDoubleReleaseIsOverrun(t *testing.T) {
	k := newEDFKernel(t, nil)
	ap := k.AddTask(task.Spec{Period: 0, Prog: task.Program{task.Compute(10 * vtime.Millisecond)}})
	boot(t, k)
	k.Engine().At(1, "fire", func() { k.ReleaseAperiodic(ap) })
	k.Engine().At(2, "fire", func() { k.ReleaseAperiodic(ap) })
	k.Run(50 * vtime.Millisecond)
	if ap.TCB.Completions != 1 || k.Stats().Overruns != 1 {
		t.Errorf("completions=%d overruns=%d", ap.TCB.Completions, k.Stats().Overruns)
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() []trace.Event {
		tr := trace.New(1 << 14)
		prof := costmodel.M68040()
		k, err := New(nil, Options{Profile: prof, Scheduler: sched.NewCSD(prof, sched.Partition{DPSizes: []int{2}}), Trace: tr, OptimizedSem: true})
		if err != nil {
			t.Fatal(err)
		}
		sem := k.NewSemaphore("s")
		for i, p := range []float64{5, 7, 11, 23} {
			prog := task.Program{
				task.Compute(vtime.Micros(300 * float64(i+1))),
				task.Acquire(sem),
				task.Compute(vtime.Micros(100)),
				task.Release(sem),
			}
			k.AddTask(task.Spec{Period: vtime.Millis(p), Prog: prog})
		}
		boot(t, k)
		k.Run(200 * vtime.Millisecond)
		return tr.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBootErrors(t *testing.T) {
	k, err := New(nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err == nil {
		t.Error("boot without scheduler succeeded")
	}
	k.SetScheduler(sched.NewEDF(costmodel.Zero()))
	if err := k.Boot(); err != nil {
		t.Fatal(err)
	}
	if err := k.Boot(); err == nil {
		t.Error("double boot succeeded")
	}
}

// TestBootRefusesDuplicateTaskNames: tasks are keyed by name in the
// trace, so Boot refuses a repeated name (explicit, or colliding with a
// default one) and an empty name, and the kernel stays unbooted.
func TestBootRefusesDuplicateTaskNames(t *testing.T) {
	spec := func(name string) task.Spec {
		return task.Spec{Name: name, Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond}
	}
	for _, tc := range []struct {
		name  string
		setup func(k *Kernel)
		want  string
	}{
		{"repeated", func(k *Kernel) { k.AddTask(spec("a")); k.AddTask(spec("b")); k.AddTask(spec("a")) }, `"a"`},
		{"default-collision", func(k *Kernel) { k.AddTask(spec("")); k.AddTask(spec("task0")) }, `"task0"`},
		{"empty", func(k *Kernel) { k.AddTask(spec("a")).TCB.Name = "" }, `""`},
	} {
		k := newEDFKernel(t, nil)
		tc.setup(k)
		err := k.Boot()
		if !errors.Is(err, ErrDuplicateTask) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Boot = %v, want ErrDuplicateTask naming %s", tc.name, err, tc.want)
		}
		if k.booted {
			t.Errorf("%s: kernel booted despite the error", tc.name)
		}
	}
}

func TestAddTaskAfterBootPanics(t *testing.T) {
	k := newEDFKernel(t, nil)
	boot(t, k)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	k.AddTask(task.Spec{Period: vtime.Millisecond})
}

func TestCSDKernelAppliesPartition(t *testing.T) {
	prof := costmodel.Zero()
	k, err := New(nil, Options{Profile: prof, Scheduler: sched.NewCSD(prof, sched.Partition{DPSizes: []int{2}})})
	if err != nil {
		t.Fatal(err)
	}
	a := k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	b := k.AddTask(task.Spec{Period: 5 * vtime.Millisecond, WCET: vtime.Millisecond})
	c := k.AddTask(task.Spec{Period: 50 * vtime.Millisecond, WCET: vtime.Millisecond})
	boot(t, k)
	// RM order: b, a, c → DP={b,a}, FP={c}.
	if b.TCB.CSDQueue != 0 || a.TCB.CSDQueue != 0 || c.TCB.CSDQueue != 1 {
		t.Errorf("queues: a=%d b=%d c=%d", a.TCB.CSDQueue, b.TCB.CSDQueue, c.TCB.CSDQueue)
	}
	k.Run(100 * vtime.Millisecond)
	if k.Stats().Misses != 0 {
		t.Errorf("misses = %d", k.Stats().Misses)
	}
}

func TestIdleAccounting(t *testing.T) {
	k := newEDFKernel(t, nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	boot(t, k)
	k.Run(100 * vtime.Millisecond)
	st := k.Stats()
	if st.UsefulCompute != 10*vtime.Millisecond {
		t.Errorf("useful = %v, want 10 ms of a 100 ms run", st.UsefulCompute)
	}
}

func TestExactBoundaryPreemptionCompletesJob(t *testing.T) {
	// τ0's job ends exactly when τ1 is released (zero-cost profile):
	// the boundary must complete τ0's job, not restart its last op.
	k := newEDFKernel(t, nil)
	a := k.AddTask(task.Spec{Name: "a", Period: 4 * vtime.Millisecond, WCET: vtime.Millisecond})
	b := k.AddTask(task.Spec{Name: "b", Period: 8 * vtime.Millisecond, WCET: 3 * vtime.Millisecond})
	boot(t, k)
	k.Run(80 * vtime.Millisecond)
	// U = 0.25 + 0.375: everything fits exactly; b's job spans release
	// boundaries of a.
	if a.TCB.Misses+b.TCB.Misses != 0 {
		t.Errorf("misses: a=%d b=%d", a.TCB.Misses, b.TCB.Misses)
	}
	if a.TCB.Completions != 20 || b.TCB.Completions != 10 {
		t.Errorf("completions: a=%d b=%d", a.TCB.Completions, b.TCB.Completions)
	}
	if got := k.Stats().UsefulCompute; got != 50*vtime.Millisecond {
		t.Errorf("useful = %v, work must not be redone at exact boundaries", got)
	}
}

func TestRunUntilAndNow(t *testing.T) {
	k := newEDFKernel(t, nil)
	k.AddTask(task.Spec{Period: 10 * vtime.Millisecond, WCET: vtime.Millisecond})
	boot(t, k)
	k.RunUntil(vtime.Time(25 * vtime.Millisecond))
	if k.Now() != vtime.Time(25*vtime.Millisecond) {
		t.Errorf("now = %v", k.Now())
	}
}
