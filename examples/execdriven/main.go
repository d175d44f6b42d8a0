// execdriven runs a real SSA-32 program — assembled from source below —
// through the timing simulator under every protection scheme: the paper's
// execution-driven SimpleScalar methodology, end to end. The program's
// *answer* never changes; only its cycles do.
//
// The kernel is a store-then-rescan histogram over a 1MB buffer (one write pass, 24 read passes): enough L2
// misses to make the crypto path visible, with a data footprint the default
// 64KB SNC comfortably covers.
//
// Run with `go run ./examples/execdriven`.
package main

import (
	"fmt"
	"log"

	"secureproc/internal/sim"
	"secureproc/internal/stats"
)

const kernel = `
	# Pass 1: write i*7 to every line of a 1MB buffer.
	li   s0, 0x200000      # base
	li   s1, 8192          # lines
	li   s2, 0             # i
	li   s3, 0             # addr cursor
write:
	beq  s2, s1, rescan
	li   t0, 7
	mul  t1, s2, t0
	add  t2, s0, s3
	sw   t1, 0(t2)
	addi s3, s3, 128
	addi s2, s2, 1
	jal  r0, write

	# Pass 2..25: read every line back 24 times, summing.
rescan:
	li   s4, 24            # passes
	li   s5, 0             # checksum
pass:
	beq  s4, r0, done
	li   s2, 0
	li   s3, 0
scan:
	beq  s2, s1, next
	add  t2, s0, s3
	lw   t1, 0(t2)
	add  s5, s5, t1
	addi s3, s3, 128
	addi s2, s2, 1
	jal  r0, scan
next:
	addi s4, s4, -1
	jal  r0, pass
done:
	mv   a0, s5
	li   r1, 0
	sys  r1                # exit with the checksum
`

func main() {
	// Every scheme in the table, in table order (baseline first):
	// a scheme added to the table shows up here without touching this
	// example.
	var base sim.ProgramResult
	t := stats.NewTable("execution-driven: 1MB histogram kernel (real SSA-32 program)",
		"scheme", "exit-code", "instrs", "cycles", "IPC", "slowdown%")
	for i, name := range sim.SchemeNames() {
		cfg := sim.DefaultConfig()
		cfg.Scheme = sim.SchemeRef{Name: name}
		pr, err := sim.RunProgramSource(cfg, kernel, 0x1000, 5_000_000)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = pr
		} else if pr.ExitCode != base.ExitCode {
			log.Fatalf("scheme %v changed the program's answer: %d != %d",
				name, pr.ExitCode, base.ExitCode)
		}
		t.AddRow(pr.Scheme, fmt.Sprint(pr.ExitCode), fmt.Sprint(pr.Instructions),
			fmt.Sprint(pr.Cycles), fmt.Sprintf("%.2f", pr.IPC()),
			fmt.Sprintf("%.2f", sim.Slowdown(pr.Result, base.Result)))
	}
	fmt.Print(t.String())
	fmt.Println("\nsame answer every time; only the memory-path cycles differ.")
	fmt.Println("(no fast-forward here, so SNC-LRU pays Algorithm 1's cold")
	fmt.Println("sequence-number fetches on first touch — which is why NoRepl,")
	fmt.Println("which skips them, briefly wins on this short kernel. The warmed,")
	fmt.Println("trace-driven runs in EXPERIMENTS.md show the steady state the")
	fmt.Println("paper reports, where LRU is the clear winner.)")
}
