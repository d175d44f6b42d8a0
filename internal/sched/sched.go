// Package sched runs several workloads through one simulated machine the
// way a multiprogrammed operating system would: round-robin time slices of
// a fixed instruction quantum, with every task switch charged its real
// microarchitectural cost — the cache hierarchy is invalidated (dirty lines
// drain through the protection scheme), and the scheme's own Section 4.3
// context-switch policy runs (flush-encrypt the SNC, or retag it per
// process).
//
// The paper argues in Section 4.3 that the SNC survives multiprogramming
// under either policy; this package is the end-to-end experiment behind
// that claim. Per-task slowdowns are reported against a solo run of the
// same workload on an identical machine, so the numbers isolate what
// co-scheduling (and the switch policy) costs on top of single-program
// execution.
package sched

import (
	"fmt"
	"strings"

	"secureproc/internal/sim"
	"secureproc/internal/stats"
	"secureproc/internal/workload"
)

// DefaultQuantum is the slice length in instructions when a Config leaves
// it zero. 100K instructions at ~1 IPC is a ~100K-cycle slice — short for a
// real OS (which makes switch costs visible, the point of the experiment)
// but long enough that tasks rebuild cache state within a slice.
const DefaultQuantum = 100_000

// Config describes one multiprogrammed run.
type Config struct {
	// Sim is the machine configuration every task shares (including the
	// protection scheme and its switch= policy).
	Sim sim.Config
	// Quantum is the time-slice length in retired instructions; 0 means
	// DefaultQuantum.
	Quantum uint64
	// Scale multiplies each workload's measured phase lengths, exactly as
	// in single-program runs (warmup phases always run in full). It must
	// be positive; 1.0 is native length.
	Scale float64
	// SkipSolo disables the per-task solo baseline runs (Slowdown fields
	// stay zero). Useful when the caller only needs switch traffic.
	SkipSolo bool
}

// TaskResult is one task's share of a multiprogrammed run.
type TaskResult struct {
	// Bench is the workload name; PID is the process ID the scheduler
	// assigned (its index in the task list).
	Bench string
	PID   int
	// Cycles is the machine time attributed to this task's slices;
	// Instructions is what it retired in them.
	Cycles       uint64
	Instructions uint64
	// SoloCycles is the same workload run alone on an identical machine;
	// SlowdownPct is the multiprogramming penalty over that solo run.
	SoloCycles  uint64
	SlowdownPct float64
	// Slices is how many time slices the task received.
	Slices uint64
}

// Result is the outcome of one multiprogrammed run.
type Result struct {
	// Scheme is the protection scheme's figure label; Policy the scheme's
	// context-switch policy ("flush", "pid", or "-" for schemes without
	// per-process state).
	Scheme string
	Policy string
	// Quantum is the effective slice length in instructions.
	Quantum uint64
	// Switches counts task switches; the three Switch* fields aggregate
	// what those switches put on the machine.
	Switches uint64
	// SwitchWritebacks is dirty lines pushed out by switch invalidations.
	SwitchWritebacks uint64
	// SwitchSeqSpills is SNC flush traffic induced by switches (zero under
	// the pid policy — that is the policy's selling point).
	SwitchSeqSpills uint64
	// SwitchCycles is machine time spent inside switches (CPU stalls from
	// the writeback burst), not attributed to any task.
	SwitchCycles uint64
	// TotalCycles is the full run length on the shared machine.
	TotalCycles uint64
	// DemandTraffic is the run's line fills + writebacks — the denominator
	// for reporting switch-induced traffic as a percentage.
	DemandTraffic uint64
	// Tasks holds per-task accounting in scheduling order.
	Tasks []TaskResult
}

// task is the scheduler's per-stream state.
type task struct {
	res    TaskResult
	stream workload.Stream
	done   bool
}

// Run time-slices the given workloads through one machine built from
// cfg.Sim. At least two workloads are required — that is what makes it
// multiprogramming.
func Run(cfg Config, profs []workload.Profile) (Result, error) {
	if len(profs) < 2 {
		return Result{}, fmt.Errorf("sched: need at least 2 workloads (got %d)", len(profs))
	}
	quantum := cfg.Quantum
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	scale := cfg.Scale
	if scale <= 0 {
		return Result{}, fmt.Errorf("sched: scale must be positive (got %g)", scale)
	}
	sys, err := sim.New(cfg.Sim)
	if err != nil {
		return Result{}, err
	}

	tasks := make([]*task, len(profs))
	for i, p := range profs {
		stream, err := workload.NewStream(p, scale)
		if err != nil {
			return Result{}, err
		}
		tasks[i] = &task{res: TaskResult{Bench: p.Name, PID: i}, stream: stream}
	}

	res := Result{Scheme: sys.Scheme().Name(), Policy: policyLabel(sys), Quantum: quantum}

	// Round-robin until every stream is exhausted. The machine starts on
	// task 0 with no switch charged (cold start, not a context switch).
	running := len(tasks)
	cur := 0
	for running > 0 {
		t := tasks[cur]
		if t.done {
			cur = (cur + 1) % len(tasks)
			continue
		}
		sliceCycles, sliceInstr := sys.Cycles(), sys.Retired()
		for sys.Retired()-sliceInstr < quantum {
			rec, ok := t.stream.Next()
			if !ok {
				t.done = true
				running--
				break
			}
			sys.Step(rec)
		}
		t.res.Slices++
		t.res.Cycles += sys.Cycles() - sliceCycles
		t.res.Instructions += sys.Retired() - sliceInstr

		// Find the next runnable task; switch only if it is a different one.
		next := cur
		for i := 1; i <= len(tasks); i++ {
			cand := (cur + i) % len(tasks)
			if !tasks[cand].done {
				next = cand
				break
			}
		}
		if running > 0 && next != cur {
			// In-flight fills complete before the caches are torn down;
			// their latency belongs to the task that issued them.
			drain0 := sys.Cycles()
			sys.Drain()
			t.res.Cycles += sys.Cycles() - drain0
			before := sys.Cycles()
			cost := sys.ContextSwitch(tasks[next].res.PID)
			res.Switches++
			res.SwitchWritebacks += cost.DirtyWritebacks
			res.SwitchSeqSpills += cost.SeqSpills
			res.SwitchCycles += sys.Cycles() - before
			cur = next
		}
	}
	// Outstanding misses of the last slice drain on its task's account.
	last := tasks[cur]
	drainStart := sys.Cycles()
	sys.Drain()
	last.res.Cycles += sys.Cycles() - drainStart
	res.TotalCycles = sys.Cycles()
	res.DemandTraffic = sys.BusDemandTransactions()

	for _, t := range tasks {
		if !cfg.SkipSolo {
			solo, err := Solo(cfg.Sim, t.res.Bench, scale)
			if err != nil {
				return Result{}, err
			}
			t.res.SoloCycles = solo
			if solo > 0 {
				t.res.SlowdownPct = 100 * (float64(t.res.Cycles)/float64(solo) - 1)
			}
		}
		res.Tasks = append(res.Tasks, t.res)
	}
	return res, nil
}

// RunBenchmarks is Run over benchmark names.
func RunBenchmarks(cfg Config, benches []string) (Result, error) {
	profs := make([]workload.Profile, len(benches))
	for i, b := range benches {
		p, ok := workload.ByName(b)
		if !ok {
			return Result{}, fmt.Errorf("sched: unknown benchmark %q", b)
		}
		profs[i] = p
	}
	return Run(cfg, profs)
}

// Solo runs one workload alone, start to finish, on a fresh machine with
// the same configuration and measurement protocol as the sliced run
// (everything counts — multiprogrammed slices cannot exclude warmup, so
// the baseline must not either). Callers that sweep many multiprogrammed
// runs over the same workloads can memoize this and pass SkipSolo.
func Solo(cfg sim.Config, bench string, scale float64) (uint64, error) {
	prof, ok := workload.ByName(bench)
	if !ok {
		return 0, fmt.Errorf("sched: unknown benchmark %q", bench)
	}
	sys, err := sim.New(cfg)
	if err != nil {
		return 0, err
	}
	stream, err := workload.NewStream(prof, scale)
	if err != nil {
		return 0, err
	}
	sys.RunWarmup(stream)
	return sys.Cycles(), nil
}

// policyLabel reads the scheme's context-switch policy for reporting; "-"
// for schemes without per-process state.
func policyLabel(sys *sim.System) string {
	if p, ok := sys.SwitchPolicy(); ok {
		return p.String()
	}
	return "-"
}

// Render formats the result as a text table plus the switch summary line.
func (r Result) Render() string {
	var b strings.Builder
	t := stats.NewTable(
		fmt.Sprintf("%s multiprogrammed, switch=%s, quantum=%d instr", r.Scheme, r.Policy, r.Quantum),
		"task", "pid", "slices", "cycles", "instructions", "solo-cycles", "slowdown%")
	for _, task := range r.Tasks {
		t.AddRow(task.Bench, fmt.Sprint(task.PID), fmt.Sprint(task.Slices),
			fmt.Sprint(task.Cycles), fmt.Sprint(task.Instructions),
			fmt.Sprint(task.SoloCycles), fmt.Sprintf("%.2f", task.SlowdownPct))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "switches: %d (%d dirty writebacks, %d seq spills, %d cycles outside any task)\n",
		r.Switches, r.SwitchWritebacks, r.SwitchSeqSpills, r.SwitchCycles)
	return b.String()
}
