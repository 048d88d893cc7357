package minic

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// ValueKind tags a runtime value.
type ValueKind uint8

// Value kinds.
const (
	KindUnit ValueKind = iota
	KindInt
	KindBool
	KindFloat
	KindString
	KindArray
	KindMutex
	KindSem
	KindThread
)

// String names the kind.
func (k ValueKind) String() string {
	switch k {
	case KindUnit:
		return "unit"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindMutex:
		return "mutex"
	case KindSem:
		return "semaphore"
	case KindThread:
		return "thread"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Array is a shared, mutable array value. Only the thread holding its
// machine's run token reads or writes the elements, so Go-level memory stays
// safe while language-level races (a load, a yield, a store) remain
// observable.
type Array struct {
	Elems []Value
}

// Value is a minic runtime value in three words, so the interpreter's
// pushes, loads and stores copy 24 bytes with one pointer word. I holds an
// int or a bool, a float's IEEE bits, a string's length or a thread's id.
// p points at a string's bytes or at the array, mutex, semaphore or thread.
// Only the constructors write p, and only the accessors read it; callers
// check Kind first, and an accessor panics rather than read p as the
// wrong kind.
type Value struct {
	Kind ValueKind
	I    int64
	p    unsafe.Pointer
}

// Constructors.

// UnitValue is the unit (no value) result.
func UnitValue() Value { return Value{Kind: KindUnit} }

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Kind: KindInt, I: v} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// FloatValue wraps a float64 by its bits, so -0.0 and NaN keep theirs.
func FloatValue(v float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(v))} }

// StringValue wraps a string. The value views v's bytes in place, so v must
// never change: no string built over a reused buffer may reach it.
func StringValue(v string) Value {
	return Value{Kind: KindString, I: int64(len(v)), p: unsafe.Pointer(unsafe.StringData(v))}
}

// arrayValue wraps elems in a new array.
func arrayValue(elems []Value) Value {
	return Value{Kind: KindArray, p: unsafe.Pointer(&Array{Elems: elems})}
}

// Float returns a float value's number.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.I)) }

// ref returns p as the reference of a kind-k value. Read as another kind,
// p would become a pointer to the wrong type, so a read of the wrong kind,
// which only a bug can make, panics instead.
func (v Value) ref(k ValueKind) unsafe.Pointer {
	if v.Kind != k {
		panic("minic: internal: value read as the wrong kind")
	}
	return v.p
}

// Str returns a string value's text.
func (v Value) Str() string { return unsafe.String((*byte)(v.ref(KindString)), int(v.I)) }

// Arr returns an array value's array.
func (v Value) Arr() *Array { return (*Array)(v.ref(KindArray)) }

// Mu returns a mutex value's mutex.
func (v Value) Mu() *Mutex { return (*Mutex)(v.ref(KindMutex)) }

// Sem returns a semaphore value's semaphore.
func (v Value) Sem() *Semaphore { return (*Semaphore)(v.ref(KindSem)) }

// Th returns a thread handle's thread.
func (v Value) Th() *Thread { return (*Thread)(v.ref(KindThread)) }

// Bool reports the truthiness of a bool value.
func (v Value) Bool() bool { return v.Kind == KindBool && v.I != 0 }

// maxValueText caps the text of one printed array at 1 MiB, the default
// size of a job's output ring; the cap is fixed, and stream_buffer_bytes
// does not move it. A longer text is cut there and ends in "...". A
// string, printed alone, is never cut: its text is only as long as the
// string itself.
const maxValueText = 1 << 20

// String renders the value the way print does (see appendValue).
func (v Value) String() string {
	if v.Kind == KindString {
		return v.Str()
	}
	return string(appendValue(nil, v))
}

// appendValue appends v's text, the way print renders it, to dst. It walks
// nested arrays with an explicit stack, so their depth costs no Go stack;
// an array already on the path from v to the element being rendered, a
// cycle, renders as [...]; and an array's text longer than maxValueText is
// cut there and ends in "...", so neither a huge array nor one that shares
// its sub-arrays many times over can take unbounded time or memory.
func appendValue(dst []byte, v Value) []byte {
	if v.Kind != KindArray {
		return appendScalar(dst, v)
	}
	start := len(dst)
	limit := start + maxValueText
	type frame struct {
		arr  *Array
		next int
	}
	var inline [8]frame
	path := append(inline[:0], frame{arr: v.Arr()})
	var onPath map[*Array]bool // the arrays on path, made at the first nested one
	dst = append(dst, '[')
	for len(path) > 0 && len(dst) <= limit {
		top := &path[len(path)-1]
		if top.next == len(top.arr.Elems) {
			dst = append(dst, ']')
			delete(onPath, top.arr)
			path = path[:len(path)-1]
			continue
		}
		if top.next > 0 {
			dst = append(dst, ' ')
		}
		e := top.arr.Elems[top.next]
		top.next++
		if e.Kind != KindArray {
			dst = appendScalar(dst, e)
			continue
		}
		if onPath == nil {
			onPath = map[*Array]bool{path[0].arr: true}
		}
		a := e.Arr()
		if onPath[a] {
			dst = append(dst, "[...]"...)
			continue
		}
		onPath[a] = true
		dst = append(dst, '[')
		path = append(path, frame{arr: a})
	}
	return cutText(dst, start, limit)
}

// appendScalar appends the text of a value that is not an array.
func appendScalar(dst []byte, v Value) []byte {
	switch v.Kind {
	case KindUnit:
		return append(dst, "()"...)
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindBool:
		return strconv.AppendBool(dst, v.I != 0)
	case KindFloat:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case KindString:
		return append(dst, v.Str()...)
	case KindMutex:
		return append(dst, "<mutex>"...)
	case KindSem:
		return append(dst, "<semaphore>"...)
	case KindThread:
		dst = append(dst, "<thread "...)
		return append(strconv.AppendInt(dst, v.I, 10), '>')
	default:
		return append(dst, "<?>"...)
	}
}

// cutText ends an array's text, which began at dst[start], at limit with
// "..." if it runs past limit, backing off to the start of a UTF-8
// sequence so no character is split.
func cutText(dst []byte, start, limit int) []byte {
	if len(dst) <= limit {
		return dst
	}
	n := limit
	for n > start && !utf8.RuneStart(dst[n]) {
		n--
	}
	return append(dst[:n], "..."...)
}

// numeric returns the value as float64 for mixed arithmetic.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.Float(), true
	default:
		return 0, false
	}
}

// fastBinary is the interpreter's numeric fast path: when a and b are both
// int or float it writes a op b into dst, exactly as applyBinary would, and
// reports true. It declines everything that can fail (division by zero, %
// with a float, && and ||, non-numeric kinds) so applyBinary stays the one
// place a diagnostic is built. dst may alias a or b.
func fastBinary(op int, a, b, dst *Value) bool {
	if a.Kind == KindInt && b.Kind == KindInt {
		return intBinary(op, a.I, b.I, dst)
	}
	var af, bf float64
	switch a.Kind {
	case KindFloat:
		af = a.Float()
	case KindInt:
		af = float64(a.I)
	default:
		return false
	}
	switch b.Kind {
	case KindFloat:
		bf = b.Float()
	case KindInt:
		bf = float64(b.I)
	default:
		return false
	}
	switch op {
	case BinAdd:
		*dst = FloatValue(af + bf)
	case BinSub:
		*dst = FloatValue(af - bf)
	case BinMul:
		*dst = FloatValue(af * bf)
	case BinDiv:
		if bf == 0 {
			return false
		}
		*dst = FloatValue(af / bf)
	case BinEq:
		*dst = Value{Kind: KindBool, I: boolInt(af == bf)}
	case BinNe:
		*dst = Value{Kind: KindBool, I: boolInt(af != bf)}
	case BinLt:
		*dst = Value{Kind: KindBool, I: boolInt(af < bf)}
	case BinLe:
		*dst = Value{Kind: KindBool, I: boolInt(af <= bf)}
	case BinGt:
		// compare's NaN rule: > is "neither less nor equal".
		*dst = Value{Kind: KindBool, I: boolInt(!(af < bf) && !(af == bf))}
	case BinGe:
		*dst = Value{Kind: KindBool, I: boolInt(!(af < bf))}
	default:
		return false
	}
	return true
}

// intBinary is fastBinary's int⊕int arm. Division and modulo by zero, and
// the bool-only logical operators, are left to applyBinary.
func intBinary(op int, a, b int64, dst *Value) bool {
	switch op {
	case BinAdd:
		*dst = Value{Kind: KindInt, I: a + b}
	case BinSub:
		*dst = Value{Kind: KindInt, I: a - b}
	case BinMul:
		*dst = Value{Kind: KindInt, I: a * b}
	case BinDiv:
		if b == 0 {
			return false
		}
		*dst = Value{Kind: KindInt, I: a / b}
	case BinMod:
		if b == 0 {
			return false
		}
		*dst = Value{Kind: KindInt, I: a % b}
	case BinEq:
		*dst = Value{Kind: KindBool, I: boolInt(a == b)}
	case BinNe:
		*dst = Value{Kind: KindBool, I: boolInt(a != b)}
	case BinLt:
		*dst = Value{Kind: KindBool, I: boolInt(a < b)}
	case BinLe:
		*dst = Value{Kind: KindBool, I: boolInt(a <= b)}
	case BinGt:
		*dst = Value{Kind: KindBool, I: boolInt(a > b)}
	case BinGe:
		*dst = Value{Kind: KindBool, I: boolInt(a >= b)}
	default:
		return false
	}
	return true
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// applyBinary evaluates a binary operator over two values with the
// language's coercion rules: int⊕int→int, any numeric mix→float,
// string+string→concat, comparisons on numbers and strings, && || on bools.
func applyBinary(op int, a, b Value, line int) (Value, error) {
	switch op {
	case BinAdd:
		if a.Kind == KindString && b.Kind == KindString {
			return StringValue(a.Str() + b.Str()), nil
		}
		fallthrough
	case BinSub, BinMul, BinDiv, BinMod:
		return arith(op, a, b, line)
	case BinEq, BinNe:
		eq, err := valueEq(a, b, line)
		if err != nil {
			return Value{}, err
		}
		if op == BinNe {
			eq = !eq
		}
		return BoolValue(eq), nil
	case BinLt, BinLe, BinGt, BinGe:
		return compare(op, a, b, line)
	case BinAnd, BinOr:
		if a.Kind != KindBool || b.Kind != KindBool {
			return Value{}, errAt(line, 0, "logical operator needs bool operands, got %s and %s", a.Kind, b.Kind)
		}
		if op == BinAnd {
			return BoolValue(a.I != 0 && b.I != 0), nil
		}
		return BoolValue(a.I != 0 || b.I != 0), nil
	default:
		return Value{}, errAt(line, 0, "internal: bad binary op %d", op)
	}
}

func arith(op int, a, b Value, line int) (Value, error) {
	if a.Kind == KindInt && b.Kind == KindInt {
		switch op {
		case BinAdd:
			return IntValue(a.I + b.I), nil
		case BinSub:
			return IntValue(a.I - b.I), nil
		case BinMul:
			return IntValue(a.I * b.I), nil
		case BinDiv:
			if b.I == 0 {
				return Value{}, errAt(line, 0, "division by zero")
			}
			return IntValue(a.I / b.I), nil
		case BinMod:
			if b.I == 0 {
				return Value{}, errAt(line, 0, "modulo by zero")
			}
			return IntValue(a.I % b.I), nil
		}
	}
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if !aok || !bok {
		return Value{}, errAt(line, 0, "arithmetic needs numeric operands, got %s and %s", a.Kind, b.Kind)
	}
	switch op {
	case BinAdd:
		return FloatValue(af + bf), nil
	case BinSub:
		return FloatValue(af - bf), nil
	case BinMul:
		return FloatValue(af * bf), nil
	case BinDiv:
		if bf == 0 {
			return Value{}, errAt(line, 0, "division by zero")
		}
		return FloatValue(af / bf), nil
	case BinMod:
		return Value{}, errAt(line, 0, "modulo needs integer operands")
	}
	return Value{}, errAt(line, 0, "internal: bad arith op %d", op)
}

func valueEq(a, b Value, line int) (bool, error) {
	if a.Kind == KindString && b.Kind == KindString {
		return a.Str() == b.Str(), nil
	}
	if a.Kind == KindBool && b.Kind == KindBool {
		return a.I == b.I, nil
	}
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if aok && bok {
		if a.Kind == KindInt && b.Kind == KindInt {
			return a.I == b.I, nil
		}
		return af == bf, nil
	}
	return false, errAt(line, 0, "cannot compare %s and %s", a.Kind, b.Kind)
}

func compare(op int, a, b Value, line int) (Value, error) {
	var lt, eq bool
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		lt, eq = a.Str() < b.Str(), a.Str() == b.Str()
	case a.Kind == KindInt && b.Kind == KindInt:
		// Ordered as ints: above 2^53 float64 would merge neighbours.
		lt, eq = a.I < b.I, a.I == b.I
	default:
		af, aok := a.numeric()
		bf, bok := b.numeric()
		if !aok || !bok {
			return Value{}, errAt(line, 0, "cannot order %s and %s", a.Kind, b.Kind)
		}
		lt, eq = af < bf, af == bf
	}
	switch op {
	case BinLt:
		return BoolValue(lt), nil
	case BinLe:
		return BoolValue(lt || eq), nil
	case BinGt:
		return BoolValue(!lt && !eq), nil
	case BinGe:
		return BoolValue(!lt), nil
	}
	return Value{}, errAt(line, 0, "internal: bad compare op %d", op)
}

func applyUnary(op int, a Value, line int) (Value, error) {
	switch op {
	case UnNeg:
		switch a.Kind {
		case KindInt:
			return IntValue(-a.I), nil
		case KindFloat:
			return FloatValue(-a.Float()), nil
		}
		return Value{}, errAt(line, 0, "negation needs a numeric operand, got %s", a.Kind)
	case UnNot:
		if a.Kind != KindBool {
			return Value{}, errAt(line, 0, "! needs a bool operand, got %s", a.Kind)
		}
		return BoolValue(a.I == 0), nil
	default:
		return Value{}, errAt(line, 0, "internal: bad unary op %d", op)
	}
}

// encodeValue serializes a sendable value (int, float, bool, string) for the
// message-passing builtins. Numbers travel little-endian, like the mpi
// package's float payloads.
func encodeValue(v Value) ([]byte, error) {
	switch v.Kind {
	case KindInt, KindBool, KindFloat:
		b := make([]byte, 9)
		b[0] = byte(v.Kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(v.I))
		return b, nil
	case KindString:
		return append([]byte{byte(KindString)}, v.Str()...), nil
	default:
		return nil, fmt.Errorf("minic: cannot send a %s", v.Kind)
	}
}

// maxSendElems caps decoded array sizes, mirroring the array() builtin's
// allocation limit so a corrupt frame cannot ask for an absurd allocation.
const maxSendElems = 1 << 22

// encodeArray serializes array elements for the message-passing builtins:
// a kind byte, a little-endian element count, then each element as its
// 9-byte scalar frame. Only numeric and bool elements travel.
func encodeArray(elems []Value) ([]byte, error) {
	b := make([]byte, 5, 5+9*len(elems))
	b[0] = byte(KindArray)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(elems)))
	for _, e := range elems {
		switch e.Kind {
		case KindInt, KindBool, KindFloat:
			var s [9]byte
			s[0] = byte(e.Kind)
			binary.LittleEndian.PutUint64(s[1:], uint64(e.I))
			b = append(b, s[:]...)
		default:
			return nil, fmt.Errorf("minic: cannot send an array containing a %s", e.Kind)
		}
	}
	return b, nil
}

func decodeArray(b []byte) (Value, error) {
	if len(b) < 5 {
		return Value{}, fmt.Errorf("minic: truncated array message")
	}
	n := int(binary.LittleEndian.Uint32(b[1:]))
	if n > maxSendElems || len(b) != 5+9*n {
		return Value{}, fmt.Errorf("minic: bad array message: %d elements, %d bytes", n, len(b))
	}
	elems := make([]Value, n)
	for i := range elems {
		e, err := decodeValue(b[5+9*i : 5+9*(i+1)])
		if err != nil {
			return Value{}, err
		}
		if e.Kind != KindInt && e.Kind != KindBool && e.Kind != KindFloat {
			return Value{}, fmt.Errorf("minic: bad array element kind %s", e.Kind)
		}
		elems[i] = e
	}
	return arrayValue(elems), nil
}

func decodeValue(b []byte) (Value, error) {
	if len(b) == 0 {
		return Value{}, fmt.Errorf("minic: empty message")
	}
	kind := ValueKind(b[0])
	switch kind {
	case KindInt, KindBool:
		if len(b) != 9 {
			return Value{}, fmt.Errorf("minic: bad int message length %d", len(b))
		}
		return Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(b[1:]))}, nil
	case KindFloat:
		if len(b) != 9 {
			return Value{}, fmt.Errorf("minic: bad float message length %d", len(b))
		}
		return Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(b[1:]))}, nil
	case KindString:
		// The copy out of b is what StringValue needs: b may be reused.
		return StringValue(string(b[1:])), nil
	case KindArray:
		return decodeArray(b)
	default:
		return Value{}, fmt.Errorf("minic: undecodable message kind %d", b[0])
	}
}
