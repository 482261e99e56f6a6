package maintain

import (
	"fmt"
	"math/bits"

	"matview/internal/exec"
)

// program is the maintenance program of one changed table: the compiled
// delta terms of every Fresh view that reads the table, and the names of the
// views over the table a statement skips. It is compiled for one version of
// the view set — the lifecycle counts every view defined, dropped or moved
// between states — and reused, rebound to each statement's Δ, until the
// version moves on. Terms that join Δ to the same relation on the same
// columns share that join within a statement (exec.DeltaInput).
type program struct {
	version uint64
	views   []programView
	skipped []string
	in      *exec.DeltaInput
}

// programView is one view's delta terms, in the order terms gives; err,
// when set, is why they do not compile, and fails the view on every
// statement.
type programView struct {
	v     *View
	terms []*exec.DeltaTerm
	err   error
}

// program returns table's maintenance program for the current view set,
// compiling it when the view set has changed since it was last compiled.
func (m *Maintainer) program(table string) *program {
	version := m.lc.version.Load()
	if p := m.programs[table]; p != nil && p.version == version {
		return p
	}
	p := &program{version: version, in: exec.NewDeltaInput()}
	for _, v := range m.views {
		var inst []int // the FROM positions at which v reads the table
		for pos, t := range v.Def.Tables {
			if t.Table.Name == table {
				inst = append(inst, pos)
			}
		}
		if len(inst) == 0 {
			continue
		}
		if st, _ := m.ViewState(v.Name); st != Fresh {
			p.skipped = append(p.skipped, v.Name)
			continue
		}
		pv := programView{v: v}
		pv.terms, pv.err = terms(v, inst)
		p.views = append(p.views, pv)
	}
	m.programs[table] = p
	return p
}

// terms compiles the delta of a view that reads the changed table at the
// FROM positions inst over the table as written (the head R′) and Δ alone,
// never the table as committed: one term per nonempty set S of the
// instances, Δ at those in S and R′ at the rest. An INSERT wrote R′ = R ⊎ Δ,
// so expanding R = R′ − Δ at every instance gives
//
//	V(R′) − V(R) = Σ_S (−1)^{|S|+1} V(Δ at S, R′ elsewhere)
//
// and a DELETE wrote R = R′ ⊎ Δ, so V(R) − V(R′) = Σ_S V(Δ at S, R′
// elsewhere). A term's sign is the statement's, negated for an even |S|
// under an INSERT. The terms of an odd |S| — the first 2^{n−1} of the
// 2^n − 1 — come first: applying every term whose sign agrees with the
// statement's before any other keeps each stored count and bag at or above
// the view's final contents, so never negative.
func terms(v *View, inst []int) ([]*exec.DeltaTerm, error) {
	var terms []*exec.DeltaTerm
	for _, parity := range []int{1, 0} {
		for s := 1; s < 1<<len(inst); s++ {
			if bits.OnesCount(uint(s))%2 != parity {
				continue
			}
			var at []int
			for i, pos := range inst {
				if s>>i&1 == 1 {
					at = append(at, pos)
				}
			}
			term, err := exec.CompileDeltaTerm(v.Def, at)
			if err != nil {
				return nil, fmt.Errorf("maintain: delta for %s: %w", v.Name, err)
			}
			terms = append(terms, term)
		}
	}
	return terms, nil
}
