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
