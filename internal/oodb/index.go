package oodb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
)

// attrIndex is an ordered index over one attribute of one class's deep
// extent, the object engine's counterpart of a relational B-tree index. It
// holds (value, object ID) pairs in two sorted runs, numbers and strings,
// because oqlCompare orders the two kinds separately and never compares one
// with the other; values of any other kind never match a bounded condition
// and are left out. Numbers are keyed by their float64 value, the domain
// oqlCompare compares an int with a float in; objects whose value is NaN,
// which oqlCompare finds equal to every number, are kept aside and are a
// candidate for every numeric range.
//
// An index only narrows the candidate set: Query re-applies every
// condition to the candidates, so an index lookup may return a superset
// (its bounds are always inclusive), never a subset.
type attrIndex struct {
	nums []entry[float64]
	strs []entry[string]
	nans []int64
}

// entry is one (value, object ID) pair of a run; a run is sorted by value,
// then ID, so every pair has one position.
type entry[K float64 | string] struct {
	k  K
	id int64
}

func cmpEntry[K float64 | string](a, b entry[K]) int {
	if c := cmp.Compare(a.k, b.k); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// insert adds e to a run: at its sorted position, or at the end while an
// index is being built (the build sorts each run once).
func insert[K float64 | string](run []entry[K], e entry[K], sorted bool) []entry[K] {
	i := len(run)
	if sorted {
		i, _ = slices.BinarySearchFunc(run, e, cmpEntry[K])
	}
	return slices.Insert(run, i, e)
}

// drop removes e from a sorted run.
func drop[K float64 | string](run []entry[K], e entry[K]) []entry[K] {
	if i, found := slices.BinarySearchFunc(run, e, cmpEntry[K]); found {
		return slices.Delete(run, i, i+1)
	}
	return run
}

// within returns the part of a sorted run whose values lie in the inclusive
// bounds lo and hi (nil bounds are open; set ones hold a K).
func within[K float64 | string](run []entry[K], lo, hi any) []entry[K] {
	i, j := 0, len(run)
	if lo != nil {
		i = sort.Search(len(run), func(x int) bool { return run[x].k >= lo.(K) })
	}
	if hi != nil {
		j = sort.Search(len(run), func(x int) bool { return run[x].k > hi.(K) })
	}
	return run[i:max(i, j)]
}

// numKey returns the index key of a numeric attribute value.
func numKey(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// add indexes one object's value of the attribute; sorted is false while
// the index is being built.
func (ix *attrIndex) add(v any, id int64, sorted bool) {
	if s, ok := v.(string); ok {
		ix.strs = insert(ix.strs, entry[string]{s, id}, sorted)
	} else if k, ok := numKey(v); ok && math.IsNaN(k) {
		ix.nans = append(ix.nans, id)
	} else if ok {
		ix.nums = insert(ix.nums, entry[float64]{k, id}, sorted)
	}
}

// remove drops one object's value of the attribute from the index.
func (ix *attrIndex) remove(v any, id int64) {
	if s, ok := v.(string); ok {
		ix.strs = drop(ix.strs, entry[string]{s, id})
	} else if k, ok := numKey(v); ok && math.IsNaN(k) {
		if i := slices.Index(ix.nans, id); i >= 0 {
			ix.nans = slices.Delete(ix.nans, i, i+1)
		}
	} else if ok {
		ix.nums = drop(ix.nums, entry[float64]{k, id})
	}
}

// span is one attribute's tightened inclusive bounds from a query's
// conditions; nil bounds are open. Numeric and string bounds on the same
// attribute form separate spans, one per run of the index.
type span struct {
	attr   string // lower-cased
	str    bool
	lo, hi any // float64 or string
}

// tighten intersects the span with one condition's bound.
func (s *span) tighten(op string, v any) {
	less := func(a, b any) bool {
		if s.str {
			return a.(string) < b.(string)
		}
		return a.(float64) < b.(float64)
	}
	if op == "=" || op == ">" || op == ">=" {
		if s.lo == nil || less(s.lo, v) {
			s.lo = v
		}
	}
	if op == "=" || op == "<" || op == "<=" {
		if s.hi == nil || less(v, s.hi) {
			s.hi = v
		}
	}
}

// boundedSpans collects the spans a query's conditions bound: a condition
// bounds its attribute when it compares with =, <, <=, > or >= against a
// numeric or string literal.
func boundedSpans(conds []oqlCond) []*span {
	var out []*span
	for i := range conds {
		c := &conds[i]
		switch c.op {
		case "=", "<", "<=", ">", ">=":
		default:
			continue
		}
		var key any
		_, str := c.val.(string)
		if str {
			key = c.val
		} else if k, ok := numKey(c.val); ok && !math.IsNaN(k) {
			key = k
		} else {
			continue
		}
		attr := strings.ToLower(c.attr)
		var s *span
		for _, have := range out {
			if have.attr == attr && have.str == str {
				s = have
			}
		}
		if s == nil {
			s = &span{attr: attr, str: str}
			out = append(out, s)
		}
		s.tighten(c.op, key)
	}
	return out
}

// lookup counts the objects whose value lies in the span (NaN-valued
// objects included for a numeric span) and, when collect is set, returns
// their IDs.
func (ix *attrIndex) lookup(s *span, collect bool) ([]int64, int) {
	var ids []int64
	if s.str {
		run := within(ix.strs, s.lo, s.hi)
		if collect {
			ids = appendIDs(make([]int64, 0, len(run)), run)
		}
		return ids, len(run)
	}
	run := within(ix.nums, s.lo, s.hi)
	if collect {
		ids = append(appendIDs(make([]int64, 0, len(run)+len(ix.nans)), run), ix.nans...)
	}
	return ids, len(run) + len(ix.nans)
}

func appendIDs[K float64 | string](ids []int64, run []entry[K]) []int64 {
	for _, e := range run {
		ids = append(ids, e.id)
	}
	return ids
}

// indexable reports whether a condition's literal may build an index on a
// class attribute: a number against an int or float attribute, a string
// against a string attribute.
func indexable(c *Class, s *span) bool {
	a, ok := c.attribute(s.attr)
	if !ok {
		return false
	}
	if s.str {
		return a.Type == AttrString
	}
	return a.Type == AttrInt || a.Type == AttrFloat
}

// ensureIndexes builds, under the write lock, the index of every attribute
// the spans bound on class c that has none yet. Indexes are never dropped,
// so one built here is still there when the caller takes the read lock.
func (db *DB) ensureIndexes(c *Class, spans []*span) {
	if len(spans) == 0 {
		return
	}
	key := strings.ToLower(c.name)
	missing := func() bool {
		for _, s := range spans {
			if db.indexes[key][s.attr] == nil && indexable(c, s) {
				return true
			}
		}
		return false
	}
	db.mu.RLock()
	build := missing()
	db.mu.RUnlock()
	if !build {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range spans {
		if db.indexes[key][s.attr] != nil || !indexable(c, s) {
			continue
		}
		ix := &attrIndex{}
		for _, id := range db.extents[key] {
			if v, ok := db.objects[id].attrs[s.attr]; ok {
				ix.add(v, id, false)
			}
		}
		slices.SortFunc(ix.strs, cmpEntry[string])
		slices.SortFunc(ix.nums, cmpEntry[float64])
		if db.indexes[key] == nil {
			db.indexes[key] = make(map[string]*attrIndex)
		}
		db.indexes[key][s.attr] = ix
	}
}

// indexCandidates returns the objects of the narrowest bounded index on
// class c, sorted by ID, when that index admits at most 1/8 of the class's
// deep extent; ok is false when the query should walk the extent instead.
// Shallow queries drop subclass instances here. The caller holds the read
// lock.
func (db *DB) indexCandidates(c *Class, deep bool, spans []*span) ([]*Object, bool) {
	key := strings.ToLower(c.name)
	var best *span
	bestN := len(db.extents[key])/indexSelectivity + 1
	for _, s := range spans {
		ix := db.indexes[key][s.attr]
		if ix == nil {
			continue
		}
		if _, n := ix.lookup(s, false); n < bestN {
			best, bestN = s, n
		}
	}
	if best == nil {
		return nil, false
	}
	ids, _ := db.indexes[key][best.attr].lookup(best, true)
	slices.Sort(ids)
	out := make([]*Object, 0, len(ids))
	for _, id := range ids {
		if o := db.objects[id]; o != nil && (deep || o.class == c) {
			out = append(out, o)
		}
	}
	return out, true
}

// indexSelectivity is the share of an extent an index range may admit for
// the index path to beat the batched extent filter.
const indexSelectivity = 8

// indexObject adds a new object's values to every index on its class and
// its ancestors. The caller holds the write lock.
func (db *DB) indexObject(o *Object) {
	for cl := o.class; cl != nil; cl = cl.super {
		for attr, ix := range db.indexes[strings.ToLower(cl.name)] {
			if v, ok := o.attrs[attr]; ok {
				ix.add(v, o.id, true)
			}
		}
	}
}

// unindexObject removes an object's values from every index on its class
// and its ancestors. The caller holds the write lock.
func (db *DB) unindexObject(o *Object) {
	for cl := o.class; cl != nil; cl = cl.super {
		for attr, ix := range db.indexes[strings.ToLower(cl.name)] {
			if v, ok := o.attrs[attr]; ok {
				ix.remove(v, o.id)
			}
		}
	}
}
