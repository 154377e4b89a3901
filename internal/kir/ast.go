// Package kir defines the kernel intermediate representation used by the
// framework: a small, typed, structured IR for data-parallel (OpenCL-style)
// kernels, together with a verifier, optimization passes (constant folding,
// dead-code elimination), a lowering pass to flat register bytecode, an
// interpreter that executes kernels at configurable floating-point
// precision while collecting dynamic operation counts, and a roofline cost
// model that turns those counts into simulated GPU execution time.
//
// Precision is late-bound: kernels are written once against named buffer
// parameters, and the element precision of each buffer is supplied at
// execution time. This mirrors how PreScaler's LLVM backend regenerates
// "precision-scaled kernels in all possible cases" from a single source —
// here the interpreter evaluates every floating-point operation at the
// precision promoted from its operands and rounds the result accordingly.
package kir

import "fmt"

// Kind classifies the value category of an expression.
type Kind uint8

const (
	// KindInvalid marks an expression that failed verification.
	KindInvalid Kind = iota
	// KindInt is a 64-bit signed integer (index arithmetic).
	KindInt
	// KindFloat is a floating-point value whose precision is late-bound.
	KindFloat
	// KindBool is a branch condition.
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// BinOp enumerates arithmetic binary operators. The same operators apply
// to int and float operands; both sides must have the same kind.
type BinOp uint8

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	// OpMod is defined for integers only.
	OpMod
	// OpMin and OpMax follow IEEE semantics for floats.
	OpMin
	OpMax
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("BinOp(%d)", uint8(op))
	}
}

// UnOp enumerates unary operators.
type UnOp uint8

const (
	OpNeg UnOp = iota
	// OpAbs is |x| for either kind.
	OpAbs
	// OpSqrt, OpExp and OpLog are float-only transcendental/special ops.
	OpSqrt
	OpExp
	OpLog
	// OpItoF converts an int expression to float (exact for the index
	// magnitudes kernels use).
	OpItoF
)

func (op UnOp) String() string {
	switch op {
	case OpNeg:
		return "neg"
	case OpAbs:
		return "abs"
	case OpSqrt:
		return "sqrt"
	case OpExp:
		return "exp"
	case OpLog:
		return "log"
	case OpItoF:
		return "itof"
	default:
		return fmt.Sprintf("UnOp(%d)", uint8(op))
	}
}

// CmpOp enumerates comparison operators; both operands must share a kind
// (int or float) and the result is bool.
type CmpOp uint8

const (
	CmpLT CmpOp = iota
	CmpLE
	CmpGT
	CmpGE
	CmpEQ
	CmpNE
)

func (op CmpOp) String() string {
	switch op {
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// LogicOp enumerates boolean connectives.
type LogicOp uint8

const (
	LogicAnd LogicOp = iota
	LogicOr
)

// Expr is a side-effect-free expression tree node.
type Expr interface{ isExpr() }

// Int is an integer literal.
type Int struct{ V int64 }

// Float is a floating-point literal. Literals are "untyped" in the Go
// sense: they adopt the precision of the surrounding expression and only
// force double-precision evaluation when no typed operand is involved.
type Float struct{ V float64 }

// Param references a scalar integer kernel argument by name (e.g. a
// matrix dimension).
type Param struct{ Name string }

// GID is the work-item's global id along dimension Dim (0 or 1).
type GID struct{ Dim int }

// Var references a local variable introduced by Let or a For loop
// variable.
type Var struct{ Name string }

// Load reads element Index of buffer parameter Buf. Its precision at
// execution time is the buffer's compute precision.
type Load struct {
	Buf   string
	Index Expr
}

// Binary applies an arithmetic operator to two operands of equal kind.
type Binary struct {
	Op   BinOp
	A, B Expr
}

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	A  Expr
}

// Compare compares two operands of equal kind, yielding bool.
type Compare struct {
	Op   CmpOp
	A, B Expr
}

// Logic combines two bool expressions.
type Logic struct {
	Op   LogicOp
	A, B Expr
}

// Select is a ternary conditional expression (cond ? a : b); A and B must
// share a kind, which becomes the Select's kind.
type Select struct {
	Cond Expr
	A, B Expr
}

func (Int) isExpr()     {}
func (Float) isExpr()   {}
func (Param) isExpr()   {}
func (GID) isExpr()     {}
func (Var) isExpr()     {}
func (Load) isExpr()    {}
func (Binary) isExpr()  {}
func (Unary) isExpr()   {}
func (Compare) isExpr() {}
func (Logic) isExpr()   {}
func (Select) isExpr()  {}

// Stmt is a statement in a kernel body.
type Stmt interface{ isStmt() }

// Let introduces a local variable of the given kind. Float locals carry
// late-bound precision; the variable's precision is that of the value last
// assigned to it.
type Let struct {
	Name string
	Kind Kind
	Init Expr
}

// Assign updates an existing local variable; the value's kind must match
// the variable's declared kind.
type Assign struct {
	Name  string
	Value Expr
}

// Store writes Value to element Index of buffer Buf, rounding to the
// buffer's storage precision.
type Store struct {
	Buf   string
	Index Expr
	Value Expr
}

// For is a counted loop over [Start, End) with step 1. The loop variable
// is a fresh int visible in Body.
type For struct {
	Var        string
	Start, End Expr
	Body       []Stmt
}

// If executes Then when Cond is true, else Else (which may be nil).
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (Let) isStmt()    {}
func (Assign) isStmt() {}
func (Store) isStmt()  {}
func (For) isStmt()    {}
func (If) isStmt()     {}

// Access describes how a kernel uses a buffer parameter.
type Access uint8

const (
	// ReadOnly buffers are kernel inputs.
	ReadOnly Access = iota
	// WriteOnly buffers are kernel outputs.
	WriteOnly
	// ReadWrite buffers are both.
	ReadWrite
)

func (a Access) String() string {
	switch a {
	case ReadOnly:
		return "ro"
	case WriteOnly:
		return "wo"
	default:
		return "rw"
	}
}

// BufParam declares a floating-point buffer kernel parameter.
type BufParam struct {
	Name   string
	Access Access
}

// Kernel is a complete data-parallel kernel: executed once per work item
// of an 1D or 2D NDRange.
type Kernel struct {
	Name string
	// Bufs are the buffer parameters in argument order.
	Bufs []BufParam
	// IntParams are scalar integer arguments (dimensions).
	IntParams []string
	// Dims is the NDRange dimensionality (1 or 2).
	Dims int
	Body []Stmt
}

// BufIndex returns the position of the named buffer parameter, or -1.
func (k *Kernel) BufIndex(name string) int {
	for i, b := range k.Bufs {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// HasIntParam reports whether name is a scalar parameter of k.
func (k *Kernel) HasIntParam(name string) bool { return k.intParamIndex(name) >= 0 }

// intParamIndex returns the position of the named scalar parameter, or -1.
func (k *Kernel) intParamIndex(name string) int {
	for i, p := range k.IntParams {
		if p == name {
			return i
		}
	}
	return -1
}
