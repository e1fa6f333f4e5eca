// Package isa defines the in-cache compute instruction set of Neural Cache
// (§IV-F of the paper) and the per-bank control FSM that executes it.
//
// At any given time every compute array in the cache executes the same
// instruction: the engine broadcasts instructions over the intra-slice
// address bus and each bank's FSM sequences the word-line activations and
// latch controls. This package provides the instruction encoding, a
// disassembler, the charged-cycle cost table (the paper's published closed
// forms, used by the analytic performance ledger), and a Controller that
// applies an instruction stream to a set of arrays in lockstep.
package isa

import (
	"fmt"

	"neuralcache/internal/sram"
)

// Op identifies an in-cache compute operation.
type Op uint8

// The operation set. Copy/Zero/logic/search come from Compute Cache
// (HPCA'17); the arithmetic, reduction and predication ops are Neural
// Cache's additions.
const (
	OpNop Op = iota
	OpCopy
	OpNotCopy
	OpZero
	OpAnd
	OpOr
	OpXor
	OpNor
	OpAdd
	OpAddTrunc
	OpAddPred
	OpSub
	OpMultiply
	OpMulAcc
	OpDivide
	OpCompareGE
	OpCompareLT
	OpMax
	OpMin
	OpReLU
	OpEqual
	OpReduceStep
	OpShiftLanes
	OpLoadTag
	OpLoadTagInv
	OpStoreTag
)

var opNames = map[Op]string{
	OpNop: "nop", OpCopy: "copy", OpNotCopy: "notcopy", OpZero: "zero",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNor: "nor",
	OpAdd: "add", OpAddTrunc: "addt", OpAddPred: "addp", OpSub: "sub",
	OpMultiply: "mul", OpMulAcc: "mac", OpDivide: "div",
	OpCompareGE: "cmpge", OpCompareLT: "cmplt", OpMax: "max", OpMin: "min",
	OpReLU: "relu", OpEqual: "eq", OpReduceStep: "redstep",
	OpShiftLanes: "shift", OpLoadTag: "ldtag", OpLoadTagInv: "ldtagn",
	OpStoreTag: "sttag",
}

// String returns the mnemonic for the operation.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instruction is one broadcast in-cache compute instruction. Fields are
// word-line base addresses within an 8 KB array plus the operand geometry.
// Unused fields are zero.
type Instruction struct {
	Op       Op
	A, B     int  // source element base rows
	Dst      int  // destination base row
	Scratch  int  // scratch base row (sub/compare/divide/max/min)
	Width    int  // operand width in bits (multiplicand width for multiplies)
	WidthB   int  // multiplier width for OpMultiply/OpMulAcc; 0 means Width
	AccWidth int  // accumulator width for OpMulAcc
	Stride   int  // lane stride for OpReduceStep / OpShiftLanes
	Pred     bool // gate write-backs by the tag latch
}

// String disassembles the instruction.
func (in Instruction) String() string {
	s := fmt.Sprintf("%-8s a=%d b=%d dst=%d w=%d", in.Op, in.A, in.B, in.Dst, in.Width)
	if in.WidthB != 0 {
		s += fmt.Sprintf(" wb=%d", in.WidthB)
	}
	if in.Scratch != 0 {
		s += fmt.Sprintf(" scr=%d", in.Scratch)
	}
	if in.AccWidth != 0 {
		s += fmt.Sprintf(" accw=%d", in.AccWidth)
	}
	if in.Stride != 0 {
		s += fmt.Sprintf(" stride=%d", in.Stride)
	}
	if in.Pred {
		s += " pred"
	}
	return s
}

// Execute applies the instruction to one array. Invalid row geometry
// panics inside the sram package, mirroring a hardware assertion.
func Execute(a *sram.Array, in Instruction) {
	n := in.Width
	switch in.Op {
	case OpNop:
	case OpCopy:
		a.Copy(in.A, in.Dst, n, in.Pred)
	case OpNotCopy:
		a.NotCopy(in.A, in.Dst, n, in.Pred)
	case OpZero:
		a.Zero(in.Dst, n, in.Pred)
	case OpAnd:
		a.And(in.A, in.B, in.Dst)
	case OpOr:
		a.Or(in.A, in.B, in.Dst)
	case OpXor:
		a.Xor(in.A, in.B, in.Dst)
	case OpNor:
		a.Nor(in.A, in.B, in.Dst)
	case OpAdd:
		a.Add(in.A, in.B, in.Dst, n)
	case OpAddTrunc:
		a.AddTrunc(in.A, in.B, in.Dst, n)
	case OpAddPred:
		a.AddPred(in.A, in.B, in.Dst, n)
	case OpSub:
		a.Sub(in.A, in.B, in.Dst, in.Scratch, n)
	case OpMultiply:
		a.MultiplyAsym(in.A, in.B, in.Dst, n, widthB(in))
	case OpMulAcc:
		a.MulAccAsym(in.A, in.B, in.Scratch, in.Dst, n, widthB(in), in.AccWidth)
	case OpDivide:
		a.Divide(in.A, in.B, in.Dst, in.Dst+n, in.Scratch, n)
	case OpCompareGE:
		a.CompareGE(in.A, in.B, in.Scratch, n)
	case OpCompareLT:
		a.CompareLT(in.A, in.B, in.Scratch, n)
	case OpMax:
		a.Max(in.A, in.B, in.Dst, in.Scratch, n)
	case OpMin:
		a.Min(in.A, in.B, in.Dst, in.Scratch, n)
	case OpReLU:
		a.ReLU(in.A, n)
	case OpEqual:
		a.Equal(in.A, in.B, n)
	case OpReduceStep:
		a.ReduceStep(in.A, in.B, n, in.Stride)
	case OpShiftLanes:
		a.ShiftLanes(in.A, in.Dst, n, in.Stride, in.Pred)
	case OpLoadTag:
		a.LoadTag(in.A)
	case OpLoadTagInv:
		a.LoadTagInv(in.A)
	case OpStoreTag:
		a.StoreTag(in.Dst)
	default:
		panic(fmt.Sprintf("isa: unknown op %v", in.Op))
	}
}

// ChargedCycles returns the cycle cost the analytic ledger charges for the
// instruction: the paper's published closed forms where available
// (§III-B/C/D), otherwise the emergent microcode cost. This is
// deliberately separate from the stepped microcode's emergent count so
// that the repository can report both.
func ChargedCycles(in Instruction) int {
	n := in.Width
	switch in.Op {
	case OpNop:
		return 0
	case OpCopy, OpNotCopy, OpZero:
		return n
	case OpAnd, OpOr, OpXor, OpNor, OpLoadTag, OpLoadTagInv, OpStoreTag:
		return 1
	case OpAdd, OpAddPred:
		return n + 1 // paper: n+1
	case OpAddTrunc:
		return n
	case OpSub:
		return 2*n + 1
	case OpMultiply:
		// Symmetric n-bit form is the paper's n²+5n−2; the asymmetric
		// generalization charges nA·nB for the partial products and keeps
		// the linear term at the mean width, so it reduces to the paper's
		// form when WidthB = Width.
		nB := widthB(in)
		return n*nB + 5*(n+nB)/2 - 2
	case OpMulAcc:
		// Paper's §VI-A: 236 cycles for an 8-bit MAC with a 24-bit
		// accumulator. Decomposed as multiply (asymmetric form above) +
		// accumulate (accW+1) + staging overhead at the mean operand
		// width; see core/cost.go for the named overhead constant.
		nB := widthB(in)
		return n*nB + 5*(n+nB)/2 - 2 + in.AccWidth + 1 + MACStagingOverhead((n+nB)/2)
	case OpDivide:
		return (3*n*n + 11*n + 1) / 2 // paper: 1.5n²+5.5n, rounded up
	case OpCompareGE, OpCompareLT:
		return 2*n + 3
	case OpMax, OpMin:
		return 4*n + 4
	case OpReLU:
		return n + 1
	case OpEqual:
		return n + 1
	case OpReduceStep:
		return 4*n + 4 // calibrated: 132 cycles at the 32-bit reduction width
	case OpShiftLanes:
		return n
	default:
		panic(fmt.Sprintf("isa: no cost for op %v", in.Op))
	}
}

// widthB resolves the multiplier width of a multiply-class instruction:
// WidthB when set, else the symmetric Width.
func widthB(in Instruction) int {
	if in.WidthB > 0 {
		return in.WidthB
	}
	return in.Width
}

// MACStagingOverhead is the per-MAC operand staging / product management
// overhead the paper's 236-cycle 8-bit MAC implies beyond multiply and
// accumulate. It scales linearly with operand width from the 8-bit
// calibration point (109 = 236 − 102 − 25).
func MACStagingOverhead(n int) int {
	const cal8 = 236 - (8*8 + 5*8 - 2) - (24 + 1)
	return cal8 * n / 8
}

// Controller is a bank FSM driving a set of arrays in lockstep, the way
// the intra-slice address bus broadcasts one instruction to every active
// bank (§IV-F). Charged cycles accumulate program-wide; emergent cycles
// accumulate inside each array's own Stats.
type Controller struct {
	Arrays  []*sram.Array
	Charged uint64 // ledger cycles for the instructions issued so far
	Issued  int    // number of instructions issued
}

// Run executes the program on every array in lockstep and returns the
// charged-cycle total for the program (all arrays run concurrently, so
// wall-clock charged time is per-instruction, not per-array).
func (c *Controller) Run(program []Instruction) uint64 {
	var charged uint64
	for _, in := range program {
		for _, a := range c.Arrays {
			Execute(a, in)
		}
		charged += uint64(ChargedCycles(in))
		c.Issued++
	}
	c.Charged += charged
	return charged
}
