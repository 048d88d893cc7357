package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cohort"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden with the current report")

// TestReportGolden: the report at evalgen's default flags is a function of
// those flags, so it is compared byte for byte with the committed copy. A
// change that moves a table shows the move in testdata/report.golden;
// accept it with go test ./cmd/evalgen -update.
func TestReportGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.txt")
	if err := run(0, cohort.PaperClassSize, 3664, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report differs from %s (go test ./cmd/evalgen -update rewrites it)\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

func TestRunTable2ToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t2.txt")
	if err := run(2, 19, 3664, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "midterm") || !strings.Contains(text, "final") {
		t.Fatalf("table 2 output = %q", text)
	}
}

func TestRunTable3Stdout(t *testing.T) {
	if err := run(3, 19, 3664, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadTable(t *testing.T) {
	if err := run(9, 19, 1, ""); err == nil {
		t.Fatal("table 9 accepted")
	}
}
