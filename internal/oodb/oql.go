package oodb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Query evaluates a small OQL-style query against the database:
//
//	SELECT * FROM ClassName
//	SELECT name, funding FROM Research DEEP WHERE field = 'aids' AND funding > 100000
//	SELECT name FROM Research WHERE name LIKE '%Hospital%'
//
// DEEP includes subclass instances. The WHERE clause is a conjunction of
// comparisons between an attribute and a literal (string, int, float, bool).
// It returns the projected column names and rows. This plays the role the
// ObjectStore/Ontos query APIs play in the paper's prototype.
func Query(db *DB, q string) ([]string, [][]any, error) {
	p := &oqlParser{toks: tokeniseOQL(q)}
	sel, err := p.parse()
	if err != nil {
		return nil, nil, err
	}
	class, ok := db.Class(sel.class)
	if !ok {
		return nil, nil, fmt.Errorf("oodb: %s: no class %s", db.name, sel.class)
	}

	// Resolve projection.
	cols := sel.attrs
	if sel.star {
		all := class.AllAttributes()
		cols = make([]string, len(all))
		for i, a := range all {
			cols[i] = a.Name
		}
	} else {
		for _, a := range cols {
			if _, ok := class.attribute(a); !ok {
				return nil, nil, fmt.Errorf("oodb: class %s has no attribute %s", sel.class, a)
			}
		}
	}

	spans := boundedSpans(sel.conds)
	db.ensureIndexes(class, spans)

	// Conditions and projection read attribute maps, which Set writes under
	// the write lock: both run under one read lock.
	db.mu.RLock()
	defer db.mu.RUnlock()
	objs, indexed := db.indexCandidates(class, sel.deep, spans)
	if !indexed {
		objs = db.extent(class, sel.deep)
	}
	objs = filterExtent(objs, sel.conds)
	// Stable output: sort by object ID (index candidates already are).
	if !indexed {
		sort.Slice(objs, func(i, j int) bool { return objs[i].ID() < objs[j].ID() })
	}

	// Attribute keys are lowered once for the whole result, not per row,
	// and every row's cells share one backing array.
	lcols := make([]string, len(cols))
	for i, c := range cols {
		lcols[i] = strings.ToLower(c)
	}
	rows := make([][]any, len(objs))
	cells := make([]any, len(objs)*len(cols))
	for r, o := range objs {
		row := cells[r*len(cols) : (r+1)*len(cols) : (r+1)*len(cols)]
		for i, lc := range lcols {
			row[i] = o.attrs[lc]
		}
		rows[r] = row
	}
	return cols, rows, nil
}

// oqlChunk is the extent filter's batch width; scratch buffers of this size
// are pooled across queries.
const oqlChunk = 1024

type oqlScratch struct {
	sel  []int
	vals []any
}

var oqlScratchPool = sync.Pool{New: func() any {
	return &oqlScratch{sel: make([]int, 0, oqlChunk), vals: make([]any, oqlChunk)}
}}

// filterExtent applies the WHERE conjunction batch-at-a-time: the extent is
// walked in chunks, and each condition is evaluated over the surviving
// objects' attribute values as one value batch, so per-object overhead (key
// lowering, predicate closure calls) is paid once per condition per chunk
// instead of once per object. Objects lacking the attribute never match, as
// with Get. Output order is extent order, as with Select.
func filterExtent(objs []*Object, conds []oqlCond) []*Object {
	if len(conds) == 0 {
		return objs
	}
	lattrs := make([]string, len(conds))
	for i := range conds {
		lattrs[i] = strings.ToLower(conds[i].attr)
	}
	sc := oqlScratchPool.Get().(*oqlScratch)
	defer func() {
		clear(sc.vals) // drop value references before pooling
		oqlScratchPool.Put(sc)
	}()
	out := objs[:0:0]
	for base := 0; base < len(objs); base += oqlChunk {
		end := min(base+oqlChunk, len(objs))
		sel := sc.sel[:0]
		for oi := base; oi < end; oi++ {
			sel = append(sel, oi)
		}
		for ci := range conds {
			if len(sel) == 0 {
				break
			}
			c := &conds[ci]
			lattr := lattrs[ci]
			// Gather the attribute value batch for the surviving selection.
			k := 0
			for _, oi := range sel {
				v, ok := objs[oi].attrs[lattr]
				if !ok {
					continue
				}
				sel[k] = oi
				sc.vals[k] = v
				k++
			}
			sel = sel[:k]
			// Evaluate the condition over the batch.
			k = 0
			for i, oi := range sel {
				if c.matchValue(sc.vals[i]) {
					sel[k] = oi
					k++
				}
			}
			sel = sel[:k]
		}
		for _, oi := range sel {
			out = append(out, objs[oi])
		}
	}
	return out
}

type oqlCond struct {
	attr string
	op   string // = <> < <= > >= LIKE
	val  any    // string, int64, float64, bool
}

func (c *oqlCond) match(o *Object) bool {
	v, ok := o.Get(c.attr)
	if !ok {
		return false
	}
	return c.matchValue(v)
}

// matchValue compares one already-fetched attribute value, the kernel shared
// by the per-object match and the batched filterExtent path.
func (c *oqlCond) matchValue(v any) bool {
	if c.op == "LIKE" {
		s, sok := v.(string)
		p, pok := c.val.(string)
		return sok && pok && oqlLike(s, p)
	}
	cmp, ok := oqlCompare(v, c.val)
	if !ok {
		return false
	}
	switch c.op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// MatchCond evaluates one OQL comparison against an already-fetched value,
// with exactly the engine's semantics (kind-mismatch is no-match, LIKE needs
// string on both sides). The federated planner uses it to compensate at the
// coordinator for conjuncts an object engine could not accept. op is one of
// = <> < <= > >= LIKE; lit is a string, int64, float64 or bool, as the OQL
// parser would have typed the literal.
func MatchCond(v any, op string, lit any) bool {
	c := oqlCond{op: op, val: lit}
	return c.matchValue(v)
}

func oqlCompare(a, b any) (int, bool) {
	switch av := a.(type) {
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), true
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case av == bv:
				return 0, true
			case !av:
				return -1, true
			default:
				return 1, true
			}
		}
	case int64:
		switch bv := b.(type) {
		case int64:
			switch {
			case av < bv:
				return -1, true
			case av > bv:
				return 1, true
			default:
				return 0, true
			}
		case float64:
			return oqlCompare(float64(av), bv)
		}
	case float64:
		switch bv := b.(type) {
		case float64:
			switch {
			case av < bv:
				return -1, true
			case av > bv:
				return 1, true
			default:
				return 0, true
			}
		case int64:
			return oqlCompare(av, float64(bv))
		}
	}
	return 0, false
}

// oqlLike matches with % and _ wildcards, mirroring SQL LIKE.
func oqlLike(s, p string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

type oqlSelect struct {
	star  bool
	attrs []string
	class string
	deep  bool
	conds []oqlCond
}

type oqlTok struct {
	kind string // word, string, number, punct, eof
	text string
}

func tokeniseOQL(src string) []oqlTok {
	var toks []oqlTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			i++
			var sb strings.Builder
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, oqlTok{"string", sb.String()})
		case c >= '0' && c <= '9' || c == '-':
			start := i
			i++
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				i++
			}
			toks = append(toks, oqlTok{"number", src[start:i]})
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := i
			for i < len(src) && (src[i] == '_' || src[i] >= 'a' && src[i] <= 'z' ||
				src[i] >= 'A' && src[i] <= 'Z' || src[i] >= '0' && src[i] <= '9') {
				i++
			}
			toks = append(toks, oqlTok{"word", src[start:i]})
		default:
			if i+1 < len(src) {
				two := src[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" {
					toks = append(toks, oqlTok{"punct", two})
					i += 2
					continue
				}
			}
			toks = append(toks, oqlTok{"punct", string(c)})
			i++
		}
	}
	return append(toks, oqlTok{kind: "eof"})
}

type oqlParser struct {
	toks []oqlTok
	pos  int
}

func (p *oqlParser) peek() oqlTok { return p.toks[p.pos] }

func (p *oqlParser) next() oqlTok {
	t := p.toks[p.pos]
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *oqlParser) acceptWord(w string) bool {
	t := p.peek()
	if t.kind == "word" && strings.EqualFold(t.text, w) {
		p.next()
		return true
	}
	return false
}

func (p *oqlParser) parse() (*oqlSelect, error) {
	sel := &oqlSelect{}
	if !p.acceptWord("SELECT") {
		return nil, fmt.Errorf("oodb: query must begin with SELECT")
	}
	if p.peek().text == "*" {
		p.next()
		sel.star = true
	} else {
		for {
			t := p.next()
			if t.kind != "word" {
				return nil, fmt.Errorf("oodb: expected attribute name, got %q", t.text)
			}
			sel.attrs = append(sel.attrs, t.text)
			if p.peek().text != "," {
				break
			}
			p.next()
		}
	}
	if !p.acceptWord("FROM") {
		return nil, fmt.Errorf("oodb: expected FROM")
	}
	cls := p.next()
	if cls.kind != "word" {
		return nil, fmt.Errorf("oodb: expected class name, got %q", cls.text)
	}
	sel.class = cls.text
	if p.acceptWord("DEEP") {
		sel.deep = true
	}
	if p.acceptWord("WHERE") {
		for {
			cond, err := p.parseCond()
			if err != nil {
				return nil, err
			}
			sel.conds = append(sel.conds, cond)
			if !p.acceptWord("AND") {
				break
			}
		}
	}
	if p.peek().kind != "eof" {
		return nil, fmt.Errorf("oodb: unexpected %q after query", p.peek().text)
	}
	return sel, nil
}

func (p *oqlParser) parseCond() (oqlCond, error) {
	attr := p.next()
	if attr.kind != "word" {
		return oqlCond{}, fmt.Errorf("oodb: expected attribute in WHERE, got %q", attr.text)
	}
	var op string
	t := p.next()
	switch {
	case t.kind == "punct" && (t.text == "=" || t.text == "<" || t.text == "<=" ||
		t.text == ">" || t.text == ">=" || t.text == "<>"):
		op = t.text
	case t.kind == "word" && strings.EqualFold(t.text, "LIKE"):
		op = "LIKE"
	default:
		return oqlCond{}, fmt.Errorf("oodb: expected comparison operator, got %q", t.text)
	}
	lit := p.next()
	var val any
	switch lit.kind {
	case "string":
		val = lit.text
	case "number":
		if strings.Contains(lit.text, ".") {
			f, err := strconv.ParseFloat(lit.text, 64)
			if err != nil {
				return oqlCond{}, fmt.Errorf("oodb: bad number %q", lit.text)
			}
			val = f
		} else {
			n, err := strconv.ParseInt(lit.text, 10, 64)
			if err != nil {
				return oqlCond{}, fmt.Errorf("oodb: bad number %q", lit.text)
			}
			val = n
		}
	case "word":
		switch strings.ToLower(lit.text) {
		case "true":
			val = true
		case "false":
			val = false
		default:
			return oqlCond{}, fmt.Errorf("oodb: expected literal, got %q", lit.text)
		}
	default:
		return oqlCond{}, fmt.Errorf("oodb: expected literal, got %q", lit.text)
	}
	return oqlCond{attr: attr.text, op: op, val: val}, nil
}
