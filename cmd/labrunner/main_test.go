package main

import "testing"

func TestRunValidatesLabNumber(t *testing.T) {
	if err := run(0, false, false); err == nil {
		t.Error("lab 0 accepted")
	}
	if err := run(8, false, false); err == nil {
		t.Error("lab 8 accepted")
	}
}

func TestRunEachLabFixedSmoke(t *testing.T) {
	// Correctness of the labs is covered in internal/labs and internal/eval.
	for lab := 1; lab <= 7; lab++ {
		if err := run(lab, true, false); err != nil {
			t.Errorf("lab %d fixed: %v", lab, err)
		}
	}
}

func TestRunBuggyLabSmoke(t *testing.T) {
	if err := run(1, false, false); err != nil {
		t.Fatal(err)
	}
}
