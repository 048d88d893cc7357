package minic

import (
	"strings"
	"testing"
)

// TestArrayCodecRoundTrip covers the array wire format the message-passing
// builtins use.
func TestArrayCodecRoundTrip(t *testing.T) {
	elems := []Value{IntValue(-7), BoolValue(true), FloatValue(3.5), IntValue(1 << 40)}
	b, err := encodeArray(elems)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decodeValue(b)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindArray || len(v.Arr().Elems) != len(elems) {
		t.Fatalf("decoded %v", v)
	}
	for i, e := range v.Arr().Elems {
		if e.Kind != elems[i].Kind || e.I != elems[i].I {
			t.Fatalf("element %d: %v vs %v", i, e, elems[i])
		}
	}
}

func TestArrayCodecRejectsBadFrames(t *testing.T) {
	// Truncated header.
	if _, err := decodeValue([]byte{byte(KindArray), 1, 0}); err == nil {
		t.Fatal("truncated array header accepted")
	}
	// Count/body mismatch.
	b, _ := encodeArray([]Value{IntValue(1)})
	if _, err := decodeValue(b[:len(b)-1]); err == nil {
		t.Fatal("truncated array body accepted")
	}
	// Unsendable element kinds are rejected at encode.
	if _, err := encodeArray([]Value{StringValue("no")}); err == nil {
		t.Fatal("string array element encoded")
	}
	// Nested/string elements inside a frame are rejected at decode.
	bad := append([]byte{byte(KindArray), 1, 0, 0, 0, byte(KindString)}, make([]byte, 8)...)
	if _, err := decodeValue(bad); err == nil {
		t.Fatal("non-numeric element frame accepted")
	}
}

// TestSequentialCollectiveBuiltins checks the NoMPI semantics of the
// array-aware builtins: size-1 identities.
func TestSequentialCollectiveBuiltins(t *testing.T) {
	got := run(t, `
func main() {
    var a = array(3);
    a[0] = 4; a[1] = 5; a[2] = 6;
    var s = reduce_sum(a);
    println(s[0] + s[1] + s[2]);
    var g = gather(0, a);
    println(len(g));
    var c = scatter(0, a);
    println(len(c));
    var b = bcast(0, a);
    println(b[2]);
}`)
	want := "15\n3\n3\n6\n"
	if got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

// TestArrayReduceKeepsIntness mirrors the scalar rule: an int element stays
// int after the reduction.
func TestArrayReduceKeepsIntness(t *testing.T) {
	got := run(t, `
func main() {
    var a = array(2);
    a[0] = 2;
    a[1] = 1.5;
    var s = reduce_sum(a);
    println(s[0] / 4);  // int division only works if s[0] stayed int
    println(s[1]);
}`)
	if !strings.HasPrefix(got, "0\n1.5\n") {
		t.Fatalf("output = %q", got)
	}
}

func TestReduceRejectsNonNumericArray(t *testing.T) {
	_, err := tryRun(`
func main() {
    var a = array(1);
    a[0] = "text";
    reduce_sum(a);
}`, "")
	if err == nil {
		t.Fatal("reduce over a string array accepted")
	}
}
