package minic

// Bytecode optimization for the minic VM. The passes here are strictly
// semantics-preserving: every lab program must produce byte-identical output
// (including runtime error messages and their source lines) with the
// optimizer on or off, which the equivalence tests enforce.
//
// Pipeline (per function body, and for the global-initializer block):
//
//  1. constant folding — Const,Const,Binary and Const,Unary windows whose
//     result is known at compile time collapse to a single Const. Folding
//     that would fail at runtime (1/0, "a"-"b") is left alone so the error
//     still fires at the original line.
//  2. dead-pop elimination — a side-effect-free push immediately followed
//     by OpPop (an expression statement like `1+2;`) disappears.
//  3. superinstruction fusion — the three dominant shapes in the labs'
//     hot loops contract to one instruction each:
//     LoadLocal+Const+Binary, LoadLocal+LoadLocal+Binary, Const+StoreLocal.
//  4. jump threading — a jump whose target is another jump retargets to the
//     final destination, collapsing the chains that loop/else compilation
//     leaves behind.
//
// Multi-instruction windows never span an interior jump target: a branch
// landing in the middle of a fused pair would change meaning. A branch to
// the *first* instruction of a window is fine — the replacement has the same
// net effect — so only interior positions are excluded.

// maxFoldPasses bounds the folding fixpoint; each pass shrinks the code, so
// this is belt and braces rather than a real limit.
const maxFoldPasses = 20

// optimizeCode runs the full pass pipeline over one code block. New folded
// constants are interned into the unit's pool.
func optimizeCode(u *Unit, code []Instr) []Instr {
	for pass := 0; pass < maxFoldPasses; pass++ {
		next, changed := foldConstants(u, code)
		code = next
		if !changed {
			break
		}
	}
	code, _ = elideDeadPops(code)
	code, _ = fuseSuperinstructions(code)
	threadJumps(code)
	return code
}

// jumpTargets marks every instruction index some branch lands on.
func jumpTargets(code []Instr) []bool {
	t := make([]bool, len(code)+1)
	for _, in := range code {
		if in.Op == OpJump || in.Op == OpJumpIfFalse {
			t[in.A] = true
		}
	}
	return t
}

// rewrite rebuilds code by scanning left to right; window(i) returns the
// replacement instructions and how many inputs they consume, or (nil, 0) to
// copy the current instruction unchanged. Branch operands are remapped to
// the rebuilt indices: an old index maps to the position its (first
// surviving) replacement landed at, or to the next emitted instruction when
// the window dropped it entirely.
func rewrite(code []Instr, window func(i int) ([]Instr, int)) ([]Instr, bool) {
	out := make([]Instr, 0, len(code))
	newIdx := make([]int, len(code)+1)
	changed := false
	for i := 0; i < len(code); {
		rep, n := window(i)
		if n == 0 {
			newIdx[i] = len(out)
			out = append(out, code[i])
			i++
			continue
		}
		changed = true
		for k := 0; k < n; k++ {
			newIdx[i+k] = len(out)
		}
		out = append(out, rep...)
		i += n
	}
	newIdx[len(code)] = len(out)
	if !changed {
		return code, false
	}
	for i := range out {
		if out[i].Op == OpJump || out[i].Op == OpJumpIfFalse {
			out[i].A = int32(newIdx[out[i].A])
		}
	}
	return out, true
}

// foldConstants collapses constant binary/unary expressions. One pass folds
// the innermost windows; the caller iterates to a fixpoint so nested
// expressions like 1+2*3 fully reduce.
func foldConstants(u *Unit, code []Instr) ([]Instr, bool) {
	isTarget := jumpTargets(code)
	return rewrite(code, func(i int) ([]Instr, int) {
		if i+2 < len(code) &&
			code[i].Op == OpConst && code[i+1].Op == OpConst && code[i+2].Op == OpBinary &&
			!isTarget[i+1] && !isTarget[i+2] {
			v, err := applyBinary(int(code[i+2].A), u.Consts[code[i].A], u.Consts[code[i+1].A], int(code[i+2].Line))
			if err == nil {
				return []Instr{{Op: OpConst, A: int32(u.internConst(v)), Line: code[i].Line}}, 3
			}
		}
		if i+1 < len(code) &&
			code[i].Op == OpConst && code[i+1].Op == OpUnary && !isTarget[i+1] {
			v, err := applyUnary(int(code[i+1].A), u.Consts[code[i].A], int(code[i+1].Line))
			if err == nil {
				return []Instr{{Op: OpConst, A: int32(u.internConst(v)), Line: code[i].Line}}, 2
			}
		}
		return nil, 0
	})
}

// elideDeadPops removes push+pop pairs whose push has no side effect.
func elideDeadPops(code []Instr) ([]Instr, bool) {
	isTarget := jumpTargets(code)
	return rewrite(code, func(i int) ([]Instr, int) {
		if i+1 < len(code) && code[i+1].Op == OpPop && !isTarget[i+1] {
			switch code[i].Op {
			case OpConst, OpLoadLocal, OpLoadGlobal:
				return []Instr{}, 2
			}
		}
		return nil, 0
	})
}

// fuseSuperinstructions contracts the dominant instruction pairs/triples.
// The fused instruction carries the line of the member that can fail at
// runtime (the binary operator), so error attribution is unchanged.
func fuseSuperinstructions(code []Instr) ([]Instr, bool) {
	isTarget := jumpTargets(code)
	return rewrite(code, func(i int) ([]Instr, int) {
		if i+2 < len(code) && code[i+2].Op == OpBinary && !isTarget[i+1] && !isTarget[i+2] {
			a, b := code[i], code[i+1]
			if a.Op == OpLoadLocal && b.Op == OpConst {
				return []Instr{{Op: OpLoadLocalConstBin, A: a.A, B: b.A, C: uint8(code[i+2].A), Line: code[i+2].Line}}, 3
			}
			if a.Op == OpLoadLocal && b.Op == OpLoadLocal {
				return []Instr{{Op: OpLoadLocal2Bin, A: a.A, B: b.A, C: uint8(code[i+2].A), Line: code[i+2].Line}}, 3
			}
		}
		if i+1 < len(code) && code[i].Op == OpConst && code[i+1].Op == OpStoreLocal && !isTarget[i+1] {
			return []Instr{{Op: OpConstStoreLocal, A: code[i].A, B: code[i+1].A, Line: code[i+1].Line}}, 2
		}
		return nil, 0
	})
}

// threadJumps retargets jump-to-jump chains in place (no instructions move,
// so no remapping is needed). Cycles (jump-to-self loops, as `while(true){}`
// compiles to after folding) are left alone.
func threadJumps(code []Instr) {
	for i := range code {
		if code[i].Op != OpJump && code[i].Op != OpJumpIfFalse {
			continue
		}
		target := int(code[i].A)
		for hops := 0; hops < len(code); hops++ {
			if target >= len(code) || code[target].Op != OpJump || int(code[target].A) == target {
				break
			}
			next := code[target].A
			if next == code[i].A {
				break // cycle back to the original target
			}
			target = int(next)
		}
		code[i].A = int32(target)
	}
}

// internConst returns the pool index of v, appending it if new. Interning
// keeps units small when folding materializes values that already exist.
func (u *Unit) internConst(v Value) int {
	for i, existing := range u.Consts {
		if sameConst(existing, v) {
			return i
		}
	}
	u.Consts = append(u.Consts, v)
	return len(u.Consts) - 1
}

// stackEffect reports how many operand-stack slots in pops and pushes.
func stackEffect(in *Instr) (pops, pushes int) {
	switch in.Op {
	case OpConst, OpLoadLocal, OpLoadGlobal, OpLoadLocalConstBin, OpLoadLocal2Bin:
		return 0, 1
	case OpStoreLocal, OpStoreGlobal, OpPop, OpJumpIfFalse, OpReturn:
		return 1, 0
	case OpJump, OpReturnNil, OpConstStoreLocal:
		return 0, 0
	case OpCall, OpCallBuiltin, OpSpawn:
		return int(in.B), 1
	case OpBinary, OpIndex:
		return 2, 1
	case OpUnary:
		return 1, 1
	case OpSetIndex:
		return 3, 0
	default:
		return 0, 0
	}
}

// computeMaxStack bounds the operand-stack depth of a code block by forward
// dataflow from entry depth 0 over the (reducible) control-flow graph the
// compiler emits. At a join the depths agree by construction; if they ever
// disagreed, the maximum is taken, which stays a safe upper bound.
func computeMaxStack(code []Instr) int {
	if len(code) == 0 {
		return 0
	}
	depth := make([]int, len(code))
	for i := range depth {
		depth[i] = -1 // unvisited
	}
	max := 0
	work := []int{0}
	depth[0] = 0
	visit := func(pc, d int) {
		if pc < 0 || pc >= len(code) {
			return
		}
		if d > depth[pc] {
			depth[pc] = d
			work = append(work, pc)
		}
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		d := depth[pc]
		in := &code[pc]
		pops, pushes := stackEffect(in)
		after := d - pops + pushes
		if after > max {
			max = after
		}
		switch in.Op {
		case OpReturn, OpReturnNil:
			// terminal
		case OpJump:
			visit(int(in.A), after)
		case OpJumpIfFalse:
			visit(int(in.A), after)
			visit(pc+1, after)
		default:
			visit(pc+1, after)
		}
	}
	return max
}
