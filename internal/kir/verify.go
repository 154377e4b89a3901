package kir

import (
	"errors"
	"fmt"
)

// Verify type-checks a kernel: every referenced name must resolve, every
// operator must receive operands of the proper kind, indices must be int,
// stored values float, conditions bool, loop variables fresh ints, and
// buffer accesses must respect the declared Access. Locals are
// block-scoped: a Let is visible from its statement to the end of the
// block that declares it, a loop variable inside its loop's body. Names
// stay unique all the same: a Let or loop variable may not reuse the
// name of any earlier Let in the kernel, in scope or not. It returns the
// first error found, prefixed with the kernel name.
func Verify(k *Kernel) error {
	v := &verifier{k: k, vars: map[string]Kind{}, lets: map[string]bool{}}
	if err := v.kernel(); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name, err)
	}
	return nil
}

type verifier struct {
	k    *Kernel
	vars map[string]Kind // locals in scope
	lets map[string]bool // every Let name declared so far
}

func (v *verifier) kernel() error {
	if v.k.Name == "" {
		return errors.New("empty kernel name")
	}
	if v.k.Dims < 1 || v.k.Dims > 2 {
		return fmt.Errorf("dims = %d, want 1 or 2", v.k.Dims)
	}
	if len(v.k.Body) == 0 {
		return errors.New("empty body")
	}
	seen := map[string]bool{}
	for _, b := range v.k.Bufs {
		if b.Name == "" {
			return errors.New("unnamed buffer parameter")
		}
		if seen[b.Name] {
			return fmt.Errorf("duplicate parameter %q", b.Name)
		}
		seen[b.Name] = true
	}
	for _, p := range v.k.IntParams {
		if p == "" {
			return errors.New("unnamed int parameter")
		}
		if seen[p] {
			return fmt.Errorf("duplicate parameter %q", p)
		}
		seen[p] = true
	}
	return v.block(v.k.Body)
}

func (v *verifier) block(stmts []Stmt) error {
	var declared []string
	for _, s := range stmts {
		if err := v.stmt(s); err != nil {
			return err
		}
		if l, ok := s.(Let); ok {
			declared = append(declared, l.Name)
		}
	}
	for _, name := range declared {
		delete(v.vars, name)
	}
	return nil
}

func (v *verifier) stmt(s Stmt) error {
	switch s := s.(type) {
	case Let:
		if s.Name == "" {
			return errors.New("let: empty name")
		}
		if _, exists := v.vars[s.Name]; exists || v.lets[s.Name] {
			return fmt.Errorf("let %q: redeclared", s.Name)
		}
		if v.k.BufIndex(s.Name) >= 0 || v.k.HasIntParam(s.Name) {
			return fmt.Errorf("let %q: shadows a parameter", s.Name)
		}
		if s.Kind != KindInt && s.Kind != KindFloat {
			return fmt.Errorf("let %q: kind must be int or float", s.Name)
		}
		got, err := v.expr(s.Init)
		if err != nil {
			return fmt.Errorf("let %q: %w", s.Name, err)
		}
		if got != s.Kind {
			return fmt.Errorf("let %q: init is %v, want %v", s.Name, got, s.Kind)
		}
		v.vars[s.Name] = s.Kind
		v.lets[s.Name] = true
		return nil
	case Assign:
		kind, ok := v.vars[s.Name]
		if !ok {
			return fmt.Errorf("assign %q: undeclared", s.Name)
		}
		got, err := v.expr(s.Value)
		if err != nil {
			return fmt.Errorf("assign %q: %w", s.Name, err)
		}
		if got != kind {
			return fmt.Errorf("assign %q: value is %v, want %v", s.Name, got, kind)
		}
		return nil
	case Store:
		bi := v.k.BufIndex(s.Buf)
		if bi < 0 {
			return fmt.Errorf("store: unknown buffer %q", s.Buf)
		}
		if v.k.Bufs[bi].Access == ReadOnly {
			return fmt.Errorf("store: buffer %q is read-only", s.Buf)
		}
		ik, err := v.expr(s.Index)
		if err != nil {
			return fmt.Errorf("store %q index: %w", s.Buf, err)
		}
		if ik != KindInt {
			return fmt.Errorf("store %q: index is %v, want int", s.Buf, ik)
		}
		vk, err := v.expr(s.Value)
		if err != nil {
			return fmt.Errorf("store %q value: %w", s.Buf, err)
		}
		if vk != KindFloat {
			return fmt.Errorf("store %q: value is %v, want float", s.Buf, vk)
		}
		return nil
	case For:
		if s.Var == "" {
			return errors.New("for: empty loop variable")
		}
		if _, exists := v.vars[s.Var]; exists || v.lets[s.Var] {
			return fmt.Errorf("for %q: loop variable redeclared", s.Var)
		}
		if v.k.BufIndex(s.Var) >= 0 || v.k.HasIntParam(s.Var) {
			return fmt.Errorf("for %q: loop variable shadows a parameter", s.Var)
		}
		for _, e := range []Expr{s.Start, s.End} {
			kind, err := v.expr(e)
			if err != nil {
				return fmt.Errorf("for %q bound: %w", s.Var, err)
			}
			if kind != KindInt {
				return fmt.Errorf("for %q: bound is %v, want int", s.Var, kind)
			}
		}
		v.vars[s.Var] = KindInt
		if err := v.block(s.Body); err != nil {
			return err
		}
		delete(v.vars, s.Var)
		return nil
	case If:
		kind, err := v.expr(s.Cond)
		if err != nil {
			return fmt.Errorf("if cond: %w", err)
		}
		if kind != KindBool {
			return fmt.Errorf("if: cond is %v, want bool", kind)
		}
		if len(s.Then) == 0 {
			return errors.New("if: empty then-block")
		}
		if err := v.block(s.Then); err != nil {
			return err
		}
		return v.block(s.Else)
	default:
		return fmt.Errorf("unknown statement %T", s)
	}
}

func (v *verifier) expr(e Expr) (Kind, error) {
	switch e := e.(type) {
	case Int:
		return KindInt, nil
	case Float:
		return KindFloat, nil
	case Param:
		if !v.k.HasIntParam(e.Name) {
			return KindInvalid, fmt.Errorf("unknown int parameter %q", e.Name)
		}
		return KindInt, nil
	case GID:
		if e.Dim < 0 || e.Dim >= v.k.Dims {
			return KindInvalid, fmt.Errorf("gid dim %d out of range for %dD kernel", e.Dim, v.k.Dims)
		}
		return KindInt, nil
	case Var:
		kind, ok := v.vars[e.Name]
		if !ok {
			return KindInvalid, fmt.Errorf("undeclared variable %q", e.Name)
		}
		return kind, nil
	case Load:
		bi := v.k.BufIndex(e.Buf)
		if bi < 0 {
			return KindInvalid, fmt.Errorf("load: unknown buffer %q", e.Buf)
		}
		if v.k.Bufs[bi].Access == WriteOnly {
			return KindInvalid, fmt.Errorf("load: buffer %q is write-only", e.Buf)
		}
		kind, err := v.expr(e.Index)
		if err != nil {
			return KindInvalid, err
		}
		if kind != KindInt {
			return KindInvalid, fmt.Errorf("load %q: index is %v, want int", e.Buf, kind)
		}
		return KindFloat, nil
	case Binary:
		a, err := v.expr(e.A)
		if err != nil {
			return KindInvalid, err
		}
		b, err := v.expr(e.B)
		if err != nil {
			return KindInvalid, err
		}
		if a != b {
			return KindInvalid, fmt.Errorf("%v: operand kinds %v and %v differ", e.Op, a, b)
		}
		if a != KindInt && a != KindFloat {
			return KindInvalid, fmt.Errorf("%v: operands are %v, want int or float", e.Op, a)
		}
		if e.Op == OpMod && a != KindInt {
			return KindInvalid, errors.New("%: operands must be int")
		}
		return a, nil
	case Unary:
		a, err := v.expr(e.A)
		if err != nil {
			return KindInvalid, err
		}
		switch e.Op {
		case OpNeg, OpAbs:
			if a != KindInt && a != KindFloat {
				return KindInvalid, fmt.Errorf("%v: operand is %v", e.Op, a)
			}
			return a, nil
		case OpSqrt, OpExp, OpLog:
			if a != KindFloat {
				return KindInvalid, fmt.Errorf("%v: operand is %v, want float", e.Op, a)
			}
			return KindFloat, nil
		case OpItoF:
			if a != KindInt {
				return KindInvalid, fmt.Errorf("itof: operand is %v, want int", a)
			}
			return KindFloat, nil
		default:
			return KindInvalid, fmt.Errorf("unknown unary op %v", e.Op)
		}
	case Compare:
		a, err := v.expr(e.A)
		if err != nil {
			return KindInvalid, err
		}
		b, err := v.expr(e.B)
		if err != nil {
			return KindInvalid, err
		}
		if a != b {
			return KindInvalid, fmt.Errorf("%v: operand kinds %v and %v differ", e.Op, a, b)
		}
		if a != KindInt && a != KindFloat {
			return KindInvalid, fmt.Errorf("%v: operands are %v", e.Op, a)
		}
		return KindBool, nil
	case Logic:
		for _, sub := range []Expr{e.A, e.B} {
			kind, err := v.expr(sub)
			if err != nil {
				return KindInvalid, err
			}
			if kind != KindBool {
				return KindInvalid, fmt.Errorf("logic: operand is %v, want bool", kind)
			}
		}
		return KindBool, nil
	case Select:
		ck, err := v.expr(e.Cond)
		if err != nil {
			return KindInvalid, err
		}
		if ck != KindBool {
			return KindInvalid, fmt.Errorf("select: cond is %v, want bool", ck)
		}
		a, err := v.expr(e.A)
		if err != nil {
			return KindInvalid, err
		}
		b, err := v.expr(e.B)
		if err != nil {
			return KindInvalid, err
		}
		if a != b {
			return KindInvalid, fmt.Errorf("select: arm kinds %v and %v differ", a, b)
		}
		return a, nil
	default:
		return KindInvalid, fmt.Errorf("unknown expression %T", e)
	}
}
