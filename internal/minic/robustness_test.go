package minic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanicsOnArbitraryInput hammers the front end with random
// byte soup: the parser must return an error or a program, never panic.
func TestParseNeverPanicsOnArbitraryInput(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("panic on input %q", src)
				ok = false
			}
		}()
		Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestParseNeverPanicsOnTokenSoup does the same with syntactically
// plausible fragments: real tokens in random order find deeper parser
// paths than raw bytes do.
func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	pieces := []string{
		"func", "var", "if", "else", "while", "for", "return", "break",
		"continue", "true", "false", "main", "x", "f", "(", ")", "{", "}",
		"[", "]", ";", ",", "=", "==", "<", "+", "-", "*", "/", "%", "&&",
		"!", "42", "3.5", `"s"`, "spawn", "println",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", src, r)
				}
			}()
			if prog, err := Parse(src); err == nil {
				// If it parsed, it must also compile or fail gracefully.
				Compile(prog)
			}
		}()
	}
}

// TestCompileSourceNeverPanicsOnMutatedLabs mutates a known-good program
// one byte at a time; every mutant must compile cleanly or error cleanly.
func TestCompileSourceNeverPanicsOnMutatedLabs(t *testing.T) {
	base := `
var counter = 0;
var m = mutex();
func worker(n) {
	for (var i = 0; i < n; i = i + 1) {
		lock(m);
		counter = counter + 1;
		unlock(m);
	}
}
func main() {
	var t1 = spawn(worker, 10);
	join(t1);
	println(counter);
}`
	rng := rand.New(rand.NewSource(7))
	chars := []byte("abc(){};=+-*/%<>!&|\"'0123456789 \n")
	for trial := 0; trial < 400; trial++ {
		mutant := []byte(base)
		pos := rng.Intn(len(mutant))
		mutant[pos] = chars[rng.Intn(len(chars))]
		src := string(mutant)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("compiler panicked on mutant (pos %d): %v\n%s", pos, r, src)
				}
			}()
			CompileSource(src)
		}()
	}
}

// TestVMHandlesDeepExpressionNesting guards the expression stack: a
// deeply right-nested expression compiles and evaluates without blowing
// the VM's value stack.
func TestVMHandlesDeepExpressionNesting(t *testing.T) {
	depth := 300
	src := "func main() { var x = " + strings.Repeat("(1 + ", depth) + "0" +
		strings.Repeat(")", depth) + "; println(x); }"
	out, err := tryRun(src, "")
	if err != nil {
		t.Fatalf("deep nesting failed: %v", err)
	}
	if strings.TrimSpace(out) != "300" {
		t.Fatalf("deep nesting result = %q", out)
	}
}

// TestVMHandlesManyLocals exercises slot allocation across many scopes.
func TestVMHandlesManyLocals(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func main() { var sum = 0;\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("{ var v = 1; sum = sum + v; }\n")
	}
	sb.WriteString("println(sum); }")
	out, err := tryRun(sb.String(), "")
	if err != nil || strings.TrimSpace(out) != "200" {
		t.Fatalf("many locals = %q, %v", out, err)
	}
}

// TestDeepNestingIsACompileError: a million levels of parentheses, unary
// minus or blocks fit under the portal's upload limit, and parsing them
// recursed until the Go stack overflowed, which kills the process. A chain
// of operators or of indexes that fills the upload limit is as tall, and
// the compiler and the printer recurse once per link. Past maxNesting
// levels each is a compile error with a position, from both the compiler
// and the formatter.
func TestDeepNestingIsACompileError(t *testing.T) {
	const depth = 1_000_000
	const upload = 8 << 20 // the portal's default max_upload_bytes
	for _, tc := range []struct{ name, src string }{
		{"parentheses", "func main() { println(" + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "); }"},
		{"unary", "func main() { println(" + strings.Repeat("-", depth) + "1); }"},
		{"blocks", "func main() " + strings.Repeat("{", depth) + strings.Repeat("}", depth)},
		{"else-if", "func main() { var x = 1; " + strings.Repeat("if (x == 0) { } else ", 10_000) + "{ } }"},
		{"operator-chain", "func main() { var x = 1; println(" + strings.Repeat("x+", upload/2-32) + "x); }"},
		{"index-chain", "func main() { var a = array(1); println(a" + strings.Repeat("[0]", upload/3-32) + "); }"},
		{"chains-in-parentheses", "func main() { var x = 1; println(" + strings.Repeat("(", 100) + "x" +
			strings.Repeat(strings.Repeat("+x", 100)+")", 100) + "); }"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := CompileSource(tc.src); err == nil || !strings.Contains(err.Error(), "nesting deeper than 1000 levels") {
				t.Fatalf("CompileSource error = %v", err)
			} else if !strings.HasPrefix(err.Error(), "1:") {
				t.Fatalf("CompileSource error lacks a line:col position: %v", err)
			}
			if _, err := Format(tc.src); err == nil || !strings.Contains(err.Error(), "nesting deeper") {
				t.Fatalf("Format error = %v", err)
			}
		})
	}
	// Nesting up to the bound still compiles and runs.
	src := "func main() { println(" + strings.Repeat("(", 900) + "1" + strings.Repeat(")", 900) + "); }"
	if out, err := tryRun(src, ""); err != nil || out != "1\n" {
		t.Fatalf("900 levels: out = %q, err = %v", out, err)
	}
	// A 999-term chain under println's call is 1,000 levels tall.
	src = "func main() { var x = 1; println(" + strings.Repeat("x+", maxNesting-2) + "x); }"
	if out, err := tryRun(src, ""); err != nil || out != "999\n" {
		t.Fatalf("%d-term chain: out = %q, err = %v", maxNesting-1, out, err)
	}
}
