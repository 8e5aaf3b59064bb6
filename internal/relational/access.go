package relational

import (
	"math"
	"slices"
)

// This file chooses the index range access path for one table scan. An
// index only narrows the candidate set: the scan still evaluates the whole
// pushed filter over the candidates, so a range path changes which rows are
// looked at, never which rows are returned.

// rangeSelectivity is the share of a table's live rows a range may admit
// for the index path to beat the batched sequential scan: past it, the
// per-row ID-to-slot mapping and the slot sort cost more than walking the
// contiguous column vectors.
const rangeSelectivity = 8

// keyRange is the tightened range one single-column index is bounded by:
// the conjunction of every `col <op> literal` and `col BETWEEN lit AND lit`
// conjunct on that column. Nil bounds are open.
type keyRange struct {
	col            int
	ix             *Index
	lo, hi         *Value
	loIncl, hiIncl bool
}

// tighten intersects the range with one more bound.
func (r *keyRange) tighten(v Value, lower, incl bool) {
	cur, curIncl := &r.hi, &r.hiIncl
	if lower {
		cur, curIncl = &r.lo, &r.loIncl
	}
	if *cur == nil {
		*cur, *curIncl = &v, incl
		return
	}
	c := Compare(v, **cur)
	if lower {
		c = -c
	}
	switch {
	case c < 0: // strictly tighter
		*cur, *curIncl = &v, incl
	case c == 0:
		*curIncl = *curIncl && incl
	}
}

// empty reports whether no key can satisfy both bounds.
func (r *keyRange) empty() bool {
	if r.lo == nil || r.hi == nil {
		return false
	}
	c := Compare(*r.lo, *r.hi)
	return c > 0 || (c == 0 && !(r.loIncl && r.hiIncl))
}

// walk visits the IDs of rows whose key lies in the range, NULL keys
// excluded (a comparison with NULL is never true); fn returns false to stop.
func (r *keyRange) walk(fn func(id int64) bool) {
	lo, loIncl := r.lo, r.loIncl
	if lo == nil {
		null := NullValue()
		lo, loIncl = &null, false
	}
	r.ix.tree.Range(lo, r.hi, loIncl, r.hiIncl, func(_ Value, ids []int64) bool {
		for _, id := range ids {
			if !fn(id) {
				return false
			}
		}
		return true
	})
}

// intWidth bounds the rows an INT-keyed unique index can hold in the range
// without walking it: the count of integers between the bounds, after
// clamping them to the tree's smallest and largest keys. It is an estimate
// (float arithmetic), used only to choose the access path.
func (r *keyRange) intWidth() float64 {
	first, last, ok := r.ix.tree.bounds()
	if !ok || last.Null {
		return 0
	}
	lo, hi := float64(first.Int), float64(last.Int)
	if r.lo != nil {
		f, _ := r.lo.AsFloat()
		b := math.Ceil(f)
		if b == f && !r.loIncl {
			b++
		}
		lo = math.Max(lo, b)
	}
	if r.hi != nil {
		f, _ := r.hi.AsFloat()
		b := math.Floor(f)
		if b == f && !r.hiIncl {
			b--
		}
		hi = math.Min(hi, b)
	}
	return math.Max(0, hi-lo+1)
}

// indexableRange returns the range the filter's comparison conjuncts bound
// each single-column-indexed column to, in conjunct order. A bound needs a
// non-NULL literal of the column's kind family, so that Compare orders it
// against every key, and against the other bounds, as it orders the keys
// themselves (Compare orders a number against text by its rendering, not
// its value).
func indexableRange(t *Table, filter Expr) []*keyRange {
	var out []*keyRange
	bound := func(cr *ColRef, lit Expr, op string) {
		l, ok := lit.(*Literal)
		if !ok || l.Val.Null {
			return
		}
		ord := t.schema.ColIndex(cr.Name)
		if ord < 0 || !keyFamily(t.schema.Columns[ord].Type, l.Val) {
			return
		}
		var r *keyRange
		for _, have := range out {
			if have.col == ord {
				r = have
			}
		}
		if r == nil {
			ix := t.singleColIndex(ord)
			if ix == nil {
				return
			}
			r = &keyRange{col: ord, ix: ix}
			out = append(out, r)
		}
		switch op {
		case "<", "<=":
			r.tighten(l.Val, false, op == "<=")
		case ">", ">=":
			r.tighten(l.Val, true, op == ">=")
		}
	}
	for _, conj := range splitConjuncts(filter) {
		switch x := conj.(type) {
		case *Binary:
			flipped, cmp := flipCmp(x.Op)
			if !cmp {
				continue
			}
			if cr, ok := x.L.(*ColRef); ok {
				bound(cr, x.R, x.Op)
			} else if cr, ok := x.R.(*ColRef); ok {
				bound(cr, x.L, flipped)
			}
		case *Between:
			if cr, ok := x.X.(*ColRef); ok && !x.Negate {
				bound(cr, x.Lo, ">=")
				bound(cr, x.Hi, "<=")
			}
		}
	}
	return out
}

// flipCmp mirrors an ordering comparison for a literal written first
// (`5 < x` is `x > 5`); cmp is false for any other operator.
func flipCmp(op string) (flipped string, cmp bool) {
	switch op {
	case "<":
		return ">", true
	case "<=":
		return ">=", true
	case ">":
		return "<", true
	case ">=":
		return "<=", true
	}
	return "", false
}

// keyFamily reports whether a literal belongs to a column type's kind
// family: numbers (NaN excluded) for INT and FLOAT, text or dates for TEXT
// and DATE, booleans for BOOLEAN.
func keyFamily(col ColType, v Value) bool {
	switch col {
	case TypeInt, TypeFloat:
		f, ok := v.AsFloat()
		return ok && !math.IsNaN(f)
	case TypeText, TypeDate:
		return v.Kind == TypeText || v.Kind == TypeDate
	}
	return v.Kind == col
}

// chooseRange decides whether a filtered scan takes the index range path
// and, if so, returns the range and the candidate row IDs (in key order).
// The path is taken when the narrowest range admits at most 1/8 of the live
// rows. An INT-keyed unique index is judged by its key width, without a
// walk; any other index by a walk capped at that share. The filter must be
// one whose evaluation cannot fail: the index path evaluates it over the
// candidates only, so a failure on a row outside the range would otherwise
// go unreported where a sequential scan reports it.
func chooseRange(t *Table, filter Expr, env *evalEnv) (*keyRange, []int64, bool) {
	if filter == nil || !infallible(filter, env) {
		return nil, nil, false
	}
	ranges := indexableRange(t, filter)
	if len(ranges) == 0 {
		return nil, nil, false
	}
	limit := t.Len() / rangeSelectivity
	var best *keyRange
	var bestIDs []int64
	bestN := limit + 1
	for _, r := range ranges {
		if r.empty() {
			return r, nil, true
		}
		if t.schema.Columns[r.col].Type == TypeInt && r.ix.Unique {
			if w := r.intWidth(); w < float64(bestN) {
				best, bestIDs, bestN = r, nil, int(w)
			}
			continue
		}
		var ids []int64
		r.walk(func(id int64) bool {
			ids = append(ids, id)
			return len(ids) < bestN
		})
		if len(ids) < bestN {
			best, bestIDs, bestN = r, ids, len(ids)
		}
	}
	if best == nil {
		return nil, nil, false
	}
	if bestIDs == nil {
		best.walk(func(id int64) bool {
			bestIDs = append(bestIDs, id)
			return true
		})
	}
	return best, bestIDs, true
}

// liveSlots maps candidate row IDs to their live slots in ascending order,
// so an index scan emits rows in the same (slot) order a sequential scan
// does.
func liveSlots(t *Table, ids []int64) []int {
	slots := make([]int, 0, len(ids))
	for _, id := range ids {
		if s, ok := t.slots[id]; ok && t.live[s] {
			slots = append(slots, s)
		}
	}
	slices.Sort(slots)
	return slots
}

// infallible reports whether evaluating e can never fail: every column
// resolves, and e is built only from literals, comparisons, LIKE, ||, IN,
// BETWEEN, IS NULL, AND, OR, and NOT over a predicate.
func infallible(e Expr, env *evalEnv) bool {
	switch x := e.(type) {
	case *Literal:
		return true
	case *ColRef:
		_, err := env.resolve(x)
		return err == nil
	case *Binary:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=", "LIKE", "||", "AND", "OR":
			return infallible(x.L, env) && infallible(x.R, env)
		}
	case *Unary:
		if x.Op != "NOT" {
			return false
		}
		switch p := x.X.(type) {
		case *Binary:
			if p.Op == "||" {
				return false
			}
		case *IsNull, *InList, *Between, *Unary:
		default:
			return false
		}
		return infallible(x.X, env)
	case *IsNull:
		return infallible(x.X, env)
	case *Between:
		return infallible(x.X, env) && infallible(x.Lo, env) && infallible(x.Hi, env)
	case *InList:
		if !infallible(x.X, env) {
			return false
		}
		for _, item := range x.List {
			if !infallible(item, env) {
				return false
			}
		}
		return true
	}
	return false
}
