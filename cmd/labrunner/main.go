// Command labrunner runs any of the seven course labs standalone, printing
// the phenomenon each one demonstrates — the closed-lab experience from the
// paper without the web portal in between. Each lab runs exactly as its row
// in the phenomenon table: a one-rank lab runs the minic program students
// submit and prints its output, and Labs 2 and 3 run on the memory
// simulator.
//
// Usage:
//
//	labrunner -lab 1..7 [-fixed]
//	labrunner -all
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
	"repro/internal/labs"
)

func main() {
	var (
		labNum = flag.Int("lab", 0, "lab number 1-7 (7 = Programming Assignment 3)")
		fixed  = flag.Bool("fixed", false, "run the corrected version instead of the buggy one")
		all    = flag.Bool("all", false, "run every lab in both variants and print the table")
	)
	flag.Parse()
	if err := run(*labNum, *fixed, *all); err != nil {
		fmt.Fprintln(os.Stderr, "labrunner:", err)
		os.Exit(1)
	}
}

func run(labNum int, fixed, all bool) error {
	if all {
		rows, err := eval.Phenomena()
		if err != nil {
			return err
		}
		fmt.Print(eval.RenderPhenomena(rows))
		return nil
	}
	if labNum < 1 || labNum > 7 {
		return fmt.Errorf("-lab must be 1..7 (or use -all)")
	}
	id := labs.All()[labNum-1]
	fmt.Printf("== %s (fixed=%v) ==\n", id.Title(), fixed)
	res, err := eval.Phenomenon(id, fixed)
	if err != nil {
		return err
	}
	fmt.Print(res.Output)
	status := "INCORRECT"
	if res.Correct {
		status = "correct"
	}
	fmt.Printf("%s: %s\n", status, res.Detail)
	return nil
}
