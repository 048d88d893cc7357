package minic

// Macro-ops: several instructions per dispatch, with the same steps.
//
// The optimizer's output is each body's canonical code, CompiledFunc.Base.
// buildMacros makes the code the VM dispatches, CompiledFunc.Code, a
// same-length copy of Base in which the first instruction of each matched
// window becomes a macro-op: it does the window's work in one dispatch and
// charges the window's W steps. The window's other instructions stay at
// their indexes, so no jump target moves, and wherever a macro-op cannot
// finish exactly as its window would, exec runs Base[pc] alone and carries
// on through the originals. Four rules make every window safe:
//
//   - A window never spans an interior jump target.
//   - Only its last instruction may call a builtin or jump, so nothing before
//     it flushes the step batch, parks or hands off the run token.
//   - A macro-op is all-or-nothing: it checks kinds and bounds before it
//     writes anything. An operator that fastBinary declines completes
//     through applyBinary (string + and comparisons); only a case that would
//     fail before the window's last instruction runs Base[pc], charged one
//     step instead of W.
//   - When the step batch would fill inside a window, exec runs Base[pc]
//     alone too, so the quantum ends before the very instruction it ends
//     before one instruction at a time.
//
// Steps(), thread handoffs, budget stops and error lines are therefore
// those of Base, which TestMacroOpsMatchBase checks.

// macroShapes lists the windows buildMacros matches, longest first. build
// returns the macro-op for a window whose opcodes match ops, or false where
// the window's operands do not fit the shape. A macro-op's Line is its last
// instruction's: the one place a macro-op can fail without declining.
var macroShapes = []struct {
	ops   []OpCode
	build func(w []Instr) (Instr, bool)
}{
	// a[k] = a[k] op f
	{[]OpCode{OpLoadLocal, OpLoadLocal, OpLoadLocal, OpLoadLocal, OpIndex, OpLoadLocal, OpBinary, OpSetIndex},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpSetIndexOp, A: w[0].A, B: w[1].A, C: uint8(w[6].A), D: w[5].A},
				w[2].A == w[0].A && w[3].A == w[1].A
		}},
	// g = g op c
	{[]OpCode{OpLoadGlobal, OpConst, OpBinary, OpStoreGlobal},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpStoreGlobalOp, A: w[0].A, B: w[1].A, C: uint8(w[2].A)}, w[3].A == w[0].A
		}},
	{[]OpCode{OpLoadLocal, OpLoadLocal, OpIndex},
		func(w []Instr) (Instr, bool) { return Instr{Op: OpIndexLocals, A: w[0].A, B: w[1].A}, true }},
	{[]OpCode{OpLoadLocal2Bin, OpStoreLocal},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpLoadLocal2BinStore, A: w[0].A, B: w[0].B, C: w[0].C, D: w[1].A}, true
		}},
	{[]OpCode{OpLoadLocalConstBin, OpStoreLocal},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpLoadLocalConstBinStore, A: w[0].A, B: w[0].B, C: w[0].C, D: w[1].A}, true
		}},
	{[]OpCode{OpLoadLocal2Bin, OpJumpIfFalse},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpLoadLocal2BinJump, A: w[0].A, B: w[0].B, C: w[0].C, D: w[1].A}, true
		}},
	{[]OpCode{OpLoadLocalConstBin, OpJumpIfFalse},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpLoadLocalConstBinJump, A: w[0].A, B: w[0].B, C: w[0].C, D: w[1].A}, true
		}},
	{[]OpCode{OpBinary, OpJumpIfFalse},
		func(w []Instr) (Instr, bool) { return Instr{Op: OpBinJump, C: uint8(w[0].A), D: w[1].A}, true }},
	{[]OpCode{OpBinary, OpStoreLocal},
		func(w []Instr) (Instr, bool) { return Instr{Op: OpBinStore, C: uint8(w[0].A), D: w[1].A}, true }},
	{[]OpCode{OpLoadLocal, OpBinary},
		func(w []Instr) (Instr, bool) { return Instr{Op: OpLoadLocalBin, A: w[1].A, D: w[0].A}, true }},
	{[]OpCode{OpConst, OpBinary},
		func(w []Instr) (Instr, bool) { return Instr{Op: OpConstBin, A: w[1].A, D: w[0].A}, true }},
	{[]OpCode{OpLoadLocal, OpCallBuiltin},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpLoadLocalCallB, A: w[1].A, B: 1, D: w[0].A}, w[1].B == 1
		}},
	{[]OpCode{OpLoadGlobal, OpCallBuiltin},
		func(w []Instr) (Instr, bool) {
			return Instr{Op: OpLoadGlobalCallB, A: w[1].A, B: 1, D: w[0].A}, w[1].B == 1
		}},
}

// buildMacros returns Base's macro-op copy, matching windows greedily from
// the left.
func buildMacros(base []Instr) []Instr {
	code := append([]Instr(nil), base...)
	isTarget := jumpTargets(base)
	for i := 0; i < len(base); {
		if in, ok := matchMacro(base[i:], isTarget[i:]); ok {
			code[i] = in
			i += int(in.W)
			continue
		}
		i++
	}
	return code
}

// matchMacro returns the macro-op of the first shape that code starts with
// and whose window spans no interior jump target.
func matchMacro(code []Instr, isTarget []bool) (Instr, bool) {
shapes:
	for _, s := range macroShapes {
		if len(s.ops) > len(code) {
			continue
		}
		for k, op := range s.ops {
			if code[k].Op != op || k > 0 && isTarget[k] {
				continue shapes
			}
		}
		if in, ok := s.build(code[:len(s.ops)]); ok {
			in.W = uint8(len(s.ops))
			in.Line = code[len(s.ops)-1].Line
			return in, true
		}
	}
	return Instr{}, false
}
