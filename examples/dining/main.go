// The dining example is Lab 6 run both ways, from the minic program students
// submit: five philosophers acquiring semaphore forks in the same order
// deadlock in a cyclic hold-and-wait, and each one prints the fork it
// blocked on; reversing philosopher 4's acquisition order makes deadlock
// impossible, and all 15 meals are eaten.
package main

import (
	"fmt"
	"log"

	"repro/internal/labs"
)

func main() {
	fmt.Println("== same-order acquisition (deadlocks) ==")
	show(false)

	fmt.Println()
	fmt.Println("== philosopher 4 reversed (deadlock-free) ==")
	show(true)
}

func show(ordered bool) {
	res, err := labs.Run(labs.Lab6Deadlock, ordered, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Output)
}
