package minic

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestValueIsThreeWords pins the interpreter's value to a kind, a payload
// word and one pointer word: every push, load, store and array element
// copies this many bytes.
func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestValueRoundTrips checks that each kind reads back through its accessor
// what its constructor was given: ints and bools as I, floats by their
// bits, strings byte for byte, and the reference kinds as the same object.
func TestValueRoundTrips(t *testing.T) {
	for _, i := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		if v := IntValue(i); v.Kind != KindInt || v.I != i {
			t.Errorf("IntValue(%d) = %s %d", i, v.Kind, v.I)
		}
	}
	for _, b := range []bool{false, true} {
		if v := BoolValue(b); v.Kind != KindBool || v.Bool() != b {
			t.Errorf("BoolValue(%v) = %s %v", b, v.Kind, v.Bool())
		}
	}
	for _, f := range []float64{math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1), 0.1} {
		v := FloatValue(f)
		if v.Kind != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(f) {
			t.Errorf("FloatValue(%v) reads back %v (bits %#x, want %#x)", f, v.Float(),
				math.Float64bits(v.Float()), math.Float64bits(f))
		}
	}
	for _, s := range []string{"", "a", "héllo, κόσμε ✓"} {
		v := StringValue(s)
		if v.Kind != KindString || v.Str() != s || v.String() != s || v.I != int64(len(s)) {
			t.Errorf("StringValue(%q) reads back %q, length %d", s, v.Str(), v.I)
		}
	}
	elems := []Value{IntValue(1), FloatValue(2.5)}
	if a := arrayValue(elems); a.Kind != KindArray || &a.Arr().Elems[0] != &elems[0] || a.String() != "[1 2.5]" {
		t.Errorf("arrayValue does not read back its elements: %s", a)
	}

	u, err := CompileSource(`
func noop() {}
func main() {
	var a = array(3);
	a[0] = mutex();
	a[1] = sem(5);
	var th = spawn(noop);
	join(th);
	a[2] = th;
	return a;
}`)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewMachine(u, MachineConfig{Seed: 1}).Run()
	if err != nil {
		t.Fatal(err)
	}
	got := v.Arr().Elems
	if mu := got[0]; mu.Kind != KindMutex || mu.Mu() == nil || mu.Mu().held || mu.String() != "<mutex>" {
		t.Errorf("mutex value %s does not read back a free mutex", mu)
	}
	if s := got[1]; s.Kind != KindSem || s.Sem().count != 5 || s.String() != "<semaphore>" {
		t.Errorf("semaphore value %s does not read back its count", s)
	}
	th := got[2]
	if th.Kind != KindThread || th.Th().id != th.I || th.I != 1 || !th.Th().finished || th.String() != "<thread 1>" {
		t.Errorf("thread handle %s (I %d) does not read back thread 1", th, th.I)
	}
}

// TestWrongKindReadPanics: a reference accessor never turns another kind's
// payload into a pointer.
func TestWrongKindReadPanics(t *testing.T) {
	v := IntValue(8)
	for name, read := range map[string]func(){
		"Str": func() { _ = v.Str() },
		"Arr": func() { _ = v.Arr() },
		"Mu":  func() { _ = v.Mu() },
		"Sem": func() { _ = v.Sem() },
		"Th":  func() { _ = v.Th() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an int did not panic", name)
				}
			}()
			read()
		}()
	}
}

// gcLineReader serves one line per Read and collects garbage before each,
// so a program's readline() runs a full GC over strings it made earlier.
type gcLineReader struct{ lines []string }

func (r *gcLineReader) Read(p []byte) (int, error) {
	if len(r.lines) == 0 {
		return 0, io.EOF
	}
	churn()
	n := copy(p, r.lines[0])
	r.lines = r.lines[1:]
	return n, nil
}

// churn collects garbage, then fills freshly allocated memory with 'X', so
// bytes the collector freed and handed out again would show.
func churn() {
	runtime.GC()
	var keep [][]byte
	for i := 0; i < 256; i++ {
		keep = append(keep, bytes.Repeat([]byte{'X'}, 16+i%64))
	}
	runtime.KeepAlive(keep)
}

// TestRuntimeStringsSurviveGC: a string value holds its bytes by pointer
// alone. Strings made at run time by +, itoa, string indexing and readline
// must print the same after later allocations and a collection, both inside
// the run and after it returns them.
func TestRuntimeStringsSurviveGC(t *testing.T) {
	u, err := CompileSource(`
func main() {
	var line = readline();
	var keep = array(4);
	keep[0] = line + "!";
	keep[1] = itoa(len(line) * 1000 + 7);
	keep[2] = line[0];
	keep[3] = line;
	println(keep);
	for (var i = 0; i < 300; i = i + 1) {
		var junk = array(100);
		junk[0] = itoa(i) + line;
	}
	readline();
	println(keep);
	return keep;
}`)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m := NewMachine(u, MachineConfig{Out: &out, In: &gcLineReader{lines: []string{"héllo wörld\n", "next\n"}}})
	v, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	const want = "[héllo wörld! 13007 h héllo wörld]"
	if out.String() != want+"\n"+want+"\n" {
		t.Fatalf("output = %q, want %q twice", out.String(), want)
	}
	churn()
	if v.String() != want {
		t.Fatalf("after the run and a GC, the returned strings read %q, want %q", v.String(), want)
	}
}

// TestPrintArrayCyclesAndSharing: an array on the path from the printed
// value to itself prints as [...]; one that is only shared prints in full.
// Rendering a cycle used to recurse until the Go stack overflowed.
func TestPrintArrayCyclesAndSharing(t *testing.T) {
	got := run(t, `
func main() {
	var a = array(2);
	a[0] = a;
	a[1] = 7;
	println(a);
	var b = array(1);
	b[0] = a;
	a[1] = b;
	println(b);
	var x = array(1);
	var y = array(2);
	y[0] = x;
	y[1] = x;
	println(y, "s", 1.5, true);
}`)
	if want := "[[...] 7]\n[[[...] [...]]]\n[[0] [0]] s 1.5 true\n"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
	// A cycle a hundred arrays long closes on the root.
	var sb strings.Builder
	sb.WriteString("func main() { var root = array(1); var a = root;\n")
	sb.WriteString("for (var i = 0; i < 100; i = i + 1) { var b = array(1); a[0] = b; a = b; }\n")
	sb.WriteString("a[0] = root; println(root); }")
	want := strings.Repeat("[", 101) + "[...]" + strings.Repeat("]", 101) + "\n"
	if got := run(t, sb.String()); got != want {
		t.Fatalf("deep cycle = %q, want %q", got, want)
	}
}

// TestPrintedValueTextIsCapped: an array's text stops at maxValueText
// bytes and ends in "...", so an array that shares its sub-arrays 2^60
// times over prints at once instead of for ever. A string longer than the
// cap prints whole on its own and is cut, at a character boundary, only
// inside an array.
func TestPrintedValueTextIsCapped(t *testing.T) {
	got := run(t, `
func main() {
	var a = array(2);
	for (var i = 0; i < 60; i = i + 1) {
		var b = array(2);
		b[0] = a;
		b[1] = a;
		a = b;
	}
	println(a);
}`)
	if len(got) != maxValueText+len("...\n") || !strings.HasPrefix(got, "[[[[") || !strings.HasSuffix(got, "...\n") {
		t.Fatalf("output: %d bytes, starts %q, ends %q", len(got), got[:min(8, len(got))], got[max(0, len(got)-8):])
	}
	text := strings.Repeat("é", maxValueText)
	long := StringValue(text)
	if s := long.String(); s != text {
		t.Fatalf("long string: %d bytes, want %d", len(s), len(text))
	}
	if s := string(appendValue(nil, long)); s != text {
		t.Fatalf("printed long string: %d bytes, want %d", len(s), len(text))
	}
	if s := arrayValue([]Value{long}).String(); len(s) > maxValueText+3 || !strings.HasPrefix(s, "[é") || !strings.HasSuffix(s, "é...") {
		t.Fatalf("array of a long string: %d bytes, ends %q", len(s), s[len(s)-8:])
	}
}

// TestPrintLargeArrayAllocatesLinearly: rendering a 100k-element array
// allocates a small constant multiple of its text. It used to build the
// text with s +=, copying it once per element.
func TestPrintLargeArrayAllocatesLinearly(t *testing.T) {
	elems := make([]Value, 100_000)
	for i := range elems {
		elems[i] = IntValue(int64(i))
	}
	v := arrayValue(elems)
	n := len(v.String())
	best := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = v.String()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > 8*uint64(n) {
		t.Fatalf("rendering %d bytes of text allocated %d bytes, want <= %d", n, best, 8*n)
	}
	t.Logf("%d bytes of text, %d bytes allocated (%.1fx)", n, best, float64(best)/float64(n))
}
