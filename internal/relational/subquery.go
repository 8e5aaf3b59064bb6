package relational

import (
	"fmt"
	"strings"
)

// rewriteStmtSubqueries replaces Subquery expressions in a SELECT with their
// materialised results (an IN-list of literals, or a boolean literal for
// EXISTS). Subqueries are uncorrelated: they are evaluated once against the
// current database snapshot. The original statement is never mutated.
func (db *Database) rewriteStmtSubqueries(s *SelectStmt) (*SelectStmt, error) {
	changed := false
	out := *s
	rw := func(e Expr) (Expr, error) {
		ne, ch, err := db.rewriteSubqueries(e)
		if err != nil {
			return nil, err
		}
		changed = changed || ch
		return ne, nil
	}
	var err error
	if out.Where, err = rw(s.Where); err != nil {
		return nil, err
	}
	if out.Having, err = rw(s.Having); err != nil {
		return nil, err
	}
	if anySubquery(s.Items) {
		out.Items = append([]SelectItem(nil), s.Items...)
		for i := range out.Items {
			if out.Items[i].Expr == nil {
				continue
			}
			if out.Items[i].Expr, err = rw(out.Items[i].Expr); err != nil {
				return nil, err
			}
		}
	}
	if !changed {
		return s, nil
	}
	return &out, nil
}

func anySubquery(items []SelectItem) bool {
	for _, it := range items {
		if it.Expr != nil && hasSubquery(it.Expr) {
			return true
		}
	}
	return false
}

// hasSubquery reports whether an expression tree contains a Subquery.
func hasSubquery(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *Subquery:
		return true
	case *Binary:
		return hasSubquery(x.L) || hasSubquery(x.R)
	case *Unary:
		return hasSubquery(x.X)
	case *IsNull:
		return hasSubquery(x.X)
	case *InList:
		if hasSubquery(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasSubquery(a) {
				return true
			}
		}
	case *Between:
		return hasSubquery(x.X) || hasSubquery(x.Lo) || hasSubquery(x.Hi)
	case *FuncCall:
		for _, a := range x.Args {
			if hasSubquery(a) {
				return true
			}
		}
	}
	return false
}

// rewriteSubqueries materialises any Subquery nodes. The caller holds the
// database lock; nested selects run against the same snapshot.
func (db *Database) rewriteSubqueries(e Expr) (Expr, bool, error) {
	switch x := e.(type) {
	case nil:
		return nil, false, nil
	case *Subquery:
		res, err := db.execSelect(x.Select)
		if err != nil {
			return nil, false, fmt.Errorf("sql: subquery: %w", err)
		}
		if x.Exists {
			v := len(res.Rows) > 0
			if x.Negate {
				v = !v
			}
			return &Literal{Val: BoolValue(v)}, true, nil
		}
		if len(res.Columns) != 1 {
			return nil, false, fmt.Errorf("sql: IN subquery must return one column, got %d", len(res.Columns))
		}
		in := &InList{X: x.X, Negate: x.Negate}
		for _, row := range res.Rows {
			in.List = append(in.List, &Literal{Val: row[0]})
		}
		return in, true, nil
	case *Binary:
		l, lc, err := db.rewriteSubqueries(x.L)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := db.rewriteSubqueries(x.R)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return x, false, nil
		}
		return &Binary{Op: x.Op, L: l, R: r}, true, nil
	case *Unary:
		in, ch, err := db.rewriteSubqueries(x.X)
		if err != nil || !ch {
			return x, false, err
		}
		return &Unary{Op: x.Op, X: in}, true, nil
	case *IsNull:
		in, ch, err := db.rewriteSubqueries(x.X)
		if err != nil || !ch {
			return x, false, err
		}
		return &IsNull{X: in, Negate: x.Negate}, true, nil
	case *Between:
		v, vc, err := db.rewriteSubqueries(x.X)
		if err != nil {
			return nil, false, err
		}
		lo, lc, err := db.rewriteSubqueries(x.Lo)
		if err != nil {
			return nil, false, err
		}
		hi, hc, err := db.rewriteSubqueries(x.Hi)
		if err != nil {
			return nil, false, err
		}
		if !vc && !lc && !hc {
			return x, false, nil
		}
		return &Between{X: v, Lo: lo, Hi: hi, Negate: x.Negate}, true, nil
	case *InList:
		v, vc, err := db.rewriteSubqueries(x.X)
		if err != nil {
			return nil, false, err
		}
		changed := vc
		list := x.List
		for i, item := range x.List {
			ni, ch, err := db.rewriteSubqueries(item)
			if err != nil {
				return nil, false, err
			}
			if ch {
				if !changed && i >= 0 {
					list = append([]Expr(nil), x.List...)
				}
				changed = true
				list[i] = ni
			}
		}
		if !changed {
			return x, false, nil
		}
		if !vc {
			v = x.X
		}
		return &InList{X: v, List: list, Negate: x.Negate}, true, nil
	case *FuncCall:
		changed := false
		args := x.Args
		for i, a := range x.Args {
			na, ch, err := db.rewriteSubqueries(a)
			if err != nil {
				return nil, false, err
			}
			if ch {
				if !changed {
					args = append([]Expr(nil), x.Args...)
				}
				changed = true
				args[i] = na
			}
		}
		if !changed {
			return x, false, nil
		}
		return &FuncCall{Name: x.Name, Args: args, Star: x.Star, Distinct: x.Distinct}, true, nil
	}
	return e, false, nil
}

// execUnion evaluates a UNION chain: the arms run independently, duplicates
// are removed across each plain-UNION boundary, and the head's ORDER BY /
// LIMIT / OFFSET apply to the combined rows (ORDER BY may use output column
// names or 1-based ordinals).
func (db *Database) execUnion(s *SelectStmt) (*Result, error) {
	var combined *Result
	prevAll := false
	for arm := s; arm != nil; arm = arm.Union {
		armCopy := *arm
		armCopy.Union = nil
		armCopy.OrderBy = nil
		armCopy.Limit = -1
		armCopy.Offset = 0
		res, err := db.execSelectArm(&armCopy)
		if err != nil {
			return nil, err
		}
		if combined == nil {
			combined = res
		} else {
			if len(res.Columns) != len(combined.Columns) {
				return nil, fmt.Errorf("sql: UNION arms have %d and %d columns",
					len(combined.Columns), len(res.Columns))
			}
			combined.Rows = append(combined.Rows, res.Rows...)
			if !prevAll {
				combined.Rows = dedupeRows(combined.Rows)
			}
		}
		prevAll = arm.UnionAll
	}

	if len(s.OrderBy) > 0 {
		if err := sortByOutput(combined, s.OrderBy); err != nil {
			return nil, err
		}
	}
	if s.Offset > 0 {
		if s.Offset >= len(combined.Rows) {
			combined.Rows = nil
		} else {
			combined.Rows = combined.Rows[s.Offset:]
		}
	}
	if s.Limit >= 0 && s.Limit < len(combined.Rows) {
		combined.Rows = combined.Rows[:s.Limit]
	}
	return combined, nil
}

func dedupeRows(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := encodeKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// sortByOutput sorts a result by ORDER BY keys resolved against the output
// columns: bare names match column headers, integer literals are 1-based
// ordinals.
func sortByOutput(res *Result, order []OrderItem) error {
	ords := make([]int, len(order))
	for i, oi := range order {
		switch e := oi.Expr.(type) {
		case *ColRef:
			if e.Table != "" {
				return fmt.Errorf("sql: UNION ORDER BY must use output column names")
			}
			found := -1
			for ci, c := range res.Columns {
				if strings.EqualFold(c, e.Name) {
					found = ci
					break
				}
			}
			if found < 0 {
				return fmt.Errorf("sql: ORDER BY column %s not in UNION output", e.Name)
			}
			ords[i] = found
		case *Literal:
			if e.Val.Kind != TypeInt || e.Val.Int < 1 || int(e.Val.Int) > len(res.Columns) {
				return fmt.Errorf("sql: ORDER BY ordinal %s out of range", e.Val)
			}
			ords[i] = int(e.Val.Int) - 1
		default:
			return fmt.Errorf("sql: UNION ORDER BY supports column names and ordinals only")
		}
	}
	sortRowsBy(res.Rows, ords, order)
	return nil
}

func sortRowsBy(rows []Row, ords []int, order []OrderItem) {
	stableSortRows(rows, func(a, b Row) bool {
		for i, ord := range ords {
			c := Compare(a[ord], b[ord])
			if c == 0 {
				continue
			}
			if order[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// stableSortRows is a minimal stable merge sort (keeps sort import local).
func stableSortRows(rows []Row, less func(a, b Row) bool) {
	if len(rows) < 2 {
		return
	}
	mid := len(rows) / 2
	left := append([]Row(nil), rows[:mid]...)
	right := append([]Row(nil), rows[mid:]...)
	stableSortRows(left, less)
	stableSortRows(right, less)
	i, j := 0, 0
	for k := range rows {
		switch {
		case i < len(left) && (j >= len(right) || !less(right[j], left[i])):
			rows[k] = left[i]
			i++
		default:
			rows[k] = right[j]
			j++
		}
	}
}

// explainSelect renders the execution plan the engine would use for a
// SELECT, re-deriving the planner's decisions (pushdown, index selection,
// join strategy, aggregation, ordering).
func (db *Database) explainSelect(s *SelectStmt) (*Result, error) {
	res := &Result{Columns: []string{"plan"}}
	emit := func(depth int, format string, args ...any) {
		res.Rows = append(res.Rows, Row{TextValue(strings.Repeat("  ", depth) + fmt.Sprintf(format, args...))})
	}
	var explainArm func(s *SelectStmt, depth int) error
	explainArm = func(s *SelectStmt, depth int) error {
		grouped := len(s.GroupBy) > 0 || s.Having != nil || anyAggregate(s.Items)
		if s.Limit >= 0 || s.Offset > 0 {
			emit(depth, "limit %d offset %d", s.Limit, s.Offset)
			depth++
		}
		if len(s.OrderBy) > 0 {
			keys := make([]string, len(s.OrderBy))
			for i, oi := range s.OrderBy {
				keys[i] = oi.Expr.String()
				if oi.Desc {
					keys[i] += " DESC"
				}
			}
			emit(depth, "sort by %s", strings.Join(keys, ", "))
			depth++
		}
		if s.Distinct {
			emit(depth, "distinct")
			depth++
		}
		if grouped {
			if len(s.GroupBy) > 0 {
				keys := make([]string, len(s.GroupBy))
				for i, g := range s.GroupBy {
					keys[i] = g.String()
				}
				emit(depth, "aggregate group by %s", strings.Join(keys, ", "))
			} else {
				emit(depth, "aggregate (single group)")
			}
			depth++
		}

		if len(s.From) == 0 {
			emit(depth, "values (no FROM)")
			return nil
		}

		// Recompute the pushdown partition exactly as buildFrom does.
		type scanSpec struct {
			ref TableRef
			t   *Table
		}
		var specs []scanSpec
		for _, tr := range s.From {
			t, err := db.table(tr.Name)
			if err != nil {
				return err
			}
			specs = append(specs, scanSpec{tr, t})
		}
		for _, jc := range s.Joins {
			t, err := db.table(jc.Table.Name)
			if err != nil {
				return err
			}
			specs = append(specs, scanSpec{jc.Table, t})
		}
		var allCols []colBinding
		for _, sp := range specs {
			b := strings.ToLower(sp.ref.Binding())
			for _, c := range sp.t.schema.Columns {
				allCols = append(allCols, colBinding{table: b, name: strings.ToLower(c.Name)})
			}
		}
		pushed := make(map[string][]Expr)
		var residual []Expr
		for _, conj := range splitConjuncts(s.Where) {
			if tbl, ok := singleBinding(conj, allCols); ok {
				pushed[tbl] = append(pushed[tbl], conj)
			} else {
				residual = append(residual, conj)
			}
		}
		for _, jc := range s.Joins {
			if jc.Kind == "LEFT" {
				b := strings.ToLower(jc.Table.Binding())
				residual = append(residual, pushed[b]...)
				delete(pushed, b)
			}
		}
		if len(residual) > 0 {
			emit(depth, "filter %s", andAll(residual).String())
			depth++
		}

		describeScan := func(sp scanSpec, depth int) {
			b := strings.ToLower(sp.ref.Binding())
			filter := andAll(pushed[b])
			env := &evalEnv{}
			for _, c := range sp.t.schema.Columns {
				env.cols = append(env.cols, colBinding{table: b, name: strings.ToLower(c.Name)})
			}
			access := "seq scan"
			if filter != nil {
				if col, _, ok := indexableEquality(sp.t, filter, env); ok {
					if ix := sp.t.singleColIndex(col); ix != nil {
						access = fmt.Sprintf("index lookup %s(%s)", ix.Name, sp.t.schema.Columns[col].Name)
					}
				} else if r, _, ok := chooseRange(sp.t, filter, env); ok {
					access = fmt.Sprintf("index range %s(%s)", r.ix.Name, sp.t.schema.Columns[r.col].Name)
				}
			}
			line := fmt.Sprintf("%s %s", access, sp.t.schema.Name)
			if sp.ref.Alias != "" {
				line += " as " + sp.ref.Alias
			}
			if filter != nil {
				line += " filter " + filter.String()
			}
			emit(depth, "%s", line)
		}

		describeScan(specs[0], depth)
		for i := 1; i < len(s.From); i++ {
			emit(depth, "cross join")
			describeScan(specs[i], depth+1)
		}
		for ji, jc := range s.Joins {
			sp := specs[len(s.From)+ji]
			switch jc.Kind {
			case "CROSS":
				emit(depth, "cross join")
			case "INNER":
				// Probe for hash-join eligibility against the left side's
				// accumulated columns (conservative: full binding set).
				strategy := "nested-loop join"
				var rightCols []colBinding
				b := strings.ToLower(sp.ref.Binding())
				for _, c := range sp.t.schema.Columns {
					rightCols = append(rightCols, colBinding{table: b, name: strings.ToLower(c.Name)})
				}
				if lk, _ := equiKeys(jc.On, allCols, rightCols); lk != nil {
					strategy = "hash join"
				}
				emit(depth, "%s on %s", strategy, jc.On.String())
			case "LEFT":
				emit(depth, "left join on %s", jc.On.String())
			}
			describeScan(sp, depth+1)
		}
		return nil
	}

	for arm := s; arm != nil; arm = arm.Union {
		if arm != s {
			op := "union"
			// The ALL flag lives on the node linking to this arm.
			emit(0, "%s", op)
		}
		armCopy := *arm
		if arm != s {
			armCopy.OrderBy = nil
			armCopy.Limit = -1
		}
		if err := explainArm(&armCopy, boolToInt(arm != s)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
