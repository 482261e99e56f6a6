package expr

import "matview/internal/sqlvalue"

// ToCNF converts a predicate into conjunctive normal form and returns the
// list of conjuncts. The view-matching algorithm assumes all predicates have
// been through this conversion (§3). NOT is pushed down to atoms first
// (negation normal form) and OR is then distributed over AND. The constant
// TRUE produces an empty conjunct list.
//
// Distribution can blow up exponentially in pathological cases; maxGrow caps
// the growth and the original disjunction is kept as a single (residual)
// conjunct when the cap is exceeded — a safe, conservative outcome for view
// matching.
func ToCNF(e Expr) []Expr {
	e = nnf(e, false)
	conjuncts := distribute(e)
	// Drop constant-TRUE conjuncts; keep everything else.
	out := conjuncts[:0]
	for _, c := range conjuncts {
		if !IsTrue(c) {
			out = append(out, c)
		}
	}
	return out
}

// maxCNFGrow caps the number of conjuncts a single OR distribution may
// produce before we give up and keep the disjunction atomic.
const maxCNFGrow = 64

// nnf pushes negation down to atoms. neg indicates whether the current
// subtree is under an odd number of NOTs.
func nnf(e Expr, neg bool) Expr {
	switch n := e.(type) {
	case Not:
		return nnf(n.E, !neg)
	case And:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = nnf(a, neg)
		}
		if neg {
			return NewOr(args...)
		}
		return NewAnd(args...)
	case Or:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = nnf(a, neg)
		}
		if neg {
			return NewAnd(args...)
		}
		return NewOr(args...)
	case Cmp:
		if neg {
			return Cmp{Op: n.Op.Negate(), L: n.L, R: n.R}
		}
		return n
	case IsNull:
		if neg {
			return IsNull{E: n.E, Negate: !n.Negate}
		}
		return n
	case Const:
		if neg && n.Val.Kind() == sqlvalue.KindBool {
			return Const{Val: sqlvalue.NewBool(!n.Val.Bool())}
		}
		return n
	default:
		if neg {
			return Not{E: e} // atom we cannot push into (LIKE, Func, …)
		}
		return e
	}
}

// distribute returns the CNF conjunct list of an NNF expression.
func distribute(e Expr) []Expr {
	switch n := e.(type) {
	case And:
		var out []Expr
		for _, a := range n.Args {
			out = append(out, distribute(a)...)
		}
		return out
	case Or:
		// CNF of (A OR B): cross-product of A's conjuncts with B's.
		acc := [][]Expr{nil} // one disjunct list per output conjunct
		for _, a := range n.Args {
			sub := distribute(a)
			if len(sub) == 0 { // operand is TRUE -> whole OR is TRUE
				return nil
			}
			if len(acc)*len(sub) > maxCNFGrow {
				return []Expr{e} // give up: keep disjunction atomic
			}
			next := make([][]Expr, 0, len(acc)*len(sub))
			for _, existing := range acc {
				for _, s := range sub {
					d := make([]Expr, len(existing), len(existing)+1)
					copy(d, existing)
					next = append(next, append(d, s))
				}
			}
			acc = next
		}
		out := make([]Expr, len(acc))
		for i, d := range acc {
			out[i] = NewOr(d...)
		}
		return out
	default:
		return []Expr{e}
	}
}

// ConjunctKind classifies a CNF conjunct into the three predicate components
// of §3.1.2.
type ConjunctKind uint8

// The three components of a CNF predicate: PE (column equality), PR (range),
// PU (residual).
const (
	KindColumnEquality ConjunctKind = iota // Ti.Cp = Tj.Cq
	KindRange                              // Ti.Cp op constant
	KindResidual                           // everything else
)

// RangeConjunct is a decomposed range predicate Ti.Cp op c.
type RangeConjunct struct {
	Col ColRef
	Op  CmpOp // one of EQ, LT, LE, GT, GE (NE is residual)
	Val sqlvalue.Value
}

// EqualityConjunct is a decomposed column-equality predicate Ti.Cp = Tj.Cq.
type EqualityConjunct struct {
	A, B ColRef
}

// Classify determines which component of the predicate a conjunct belongs to
// and returns the decomposed form for PE and PR conjuncts.
//
// A column-equality predicate is any atomic predicate (Ti.Cp = Tj.Cq); a
// range predicate is (Ti.Cp op c) with op in {<, <=, =, >=, >} and c a
// constant, in either operand order. NULL constants never form ranges
// (col = NULL is never true); they stay residual.
func Classify(e Expr) (kind ConjunctKind, eq EqualityConjunct, rng RangeConjunct) {
	cmp, ok := e.(Cmp)
	if !ok {
		return KindResidual, eq, rng
	}
	lc, lIsCol := cmp.L.(Column)
	rc, rIsCol := cmp.R.(Column)
	lk, lIsConst := cmp.L.(Const)
	rk, rIsConst := cmp.R.(Const)

	if cmp.Op == EQ && lIsCol && rIsCol {
		return KindColumnEquality, EqualityConjunct{A: lc.Ref, B: rc.Ref}, rng
	}
	rangeOp := cmp.Op == EQ || cmp.Op == LT || cmp.Op == LE || cmp.Op == GT || cmp.Op == GE
	if lIsCol && rIsConst && rangeOp && !rk.Val.IsNull() {
		return KindRange, eq, RangeConjunct{Col: lc.Ref, Op: cmp.Op, Val: rk.Val}
	}
	if rIsCol && lIsConst && rangeOp && !lk.Val.IsNull() {
		return KindRange, eq, RangeConjunct{Col: rc.Ref, Op: cmp.Op.Flip(), Val: lk.Val}
	}
	return KindResidual, eq, rng
}

// Expr returns the predicate as an expression, column on the left.
func (rc RangeConjunct) Expr() Expr {
	return Cmp{Op: rc.Op, L: Column{Ref: rc.Col}, R: Const{Val: rc.Val}}
}

// SplitPredicate converts a predicate to CNF and splits the conjuncts into
// the PE / PR / PU components of §3.1.2.
func SplitPredicate(w Expr) (pe []EqualityConjunct, pr []RangeConjunct, pu []Expr) {
	return SplitConjuncts(ToCNF(w))
}

// SplitConjuncts splits CNF conjuncts into the PE / PR / PU components, each
// in conjunct order.
func SplitConjuncts(conjuncts []Expr) (pe []EqualityConjunct, pr []RangeConjunct, pu []Expr) {
	for _, c := range conjuncts {
		kind, eq, rng := Classify(c)
		switch kind {
		case KindColumnEquality:
			pe = append(pe, eq)
		case KindRange:
			pr = append(pr, rng)
		default:
			pu = append(pu, c)
		}
	}
	return pe, pr, pu
}
