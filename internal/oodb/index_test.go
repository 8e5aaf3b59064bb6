package oodb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// scanQuery is the index-free oracle for Query: the same parse and
// projection, with the candidates taken from the whole extent and filtered
// by filterExtent.
func scanQuery(db *DB, q string) ([]string, [][]any, error) {
	p := &oqlParser{toks: tokeniseOQL(q)}
	sel, err := p.parse()
	if err != nil {
		return nil, nil, err
	}
	class, ok := db.Class(sel.class)
	if !ok {
		return nil, nil, fmt.Errorf("no class %s", sel.class)
	}
	cols := sel.attrs
	if sel.star {
		cols = nil
		for _, a := range class.AllAttributes() {
			cols = append(cols, a.Name)
		}
	}
	for _, a := range cols {
		if _, ok := class.attribute(a); !ok {
			return nil, nil, fmt.Errorf("no attribute %s", a)
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	objs := filterExtent(db.extent(class, sel.deep), sel.conds)
	sort.Slice(objs, func(i, j int) bool { return objs[i].id < objs[j].id })
	rows := make([][]any, 0, len(objs))
	for _, o := range objs {
		row := make([]any, len(cols))
		for i, c := range cols {
			row[i] = o.attrs[strings.ToLower(c)]
		}
		rows = append(rows, row)
	}
	return cols, rows, nil
}

// usedIndex reports whether Query would answer q from an index now.
func usedIndex(t *testing.T, db *DB, q string) bool {
	t.Helper()
	p := &oqlParser{toks: tokeniseOQL(q)}
	sel, err := p.parse()
	if err != nil {
		return false
	}
	class, ok := db.Class(sel.class)
	if !ok {
		return false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, used := db.indexCandidates(class, sel.deep, boundedSpans(sel.conds))
	return used
}

// checkQuery requires Query and the full-scan oracle to agree on q.
func checkQuery(t *testing.T, db *DB, q string) {
	t.Helper()
	cols, rows, err := Query(db, q)
	wcols, wrows, werr := scanQuery(db, q)
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: error %v, full scan error %v", q, err, werr)
	}
	if err == nil && (!reflect.DeepEqual(cols, wcols) || !reflect.DeepEqual(rows, wrows)) {
		t.Fatalf("%s:\nindex path %v %v\nfull scan  %v %v", q, cols, rows, wcols, wrows)
	}
}

// rangeDB defines Obs(n int, x float, name string, tags list) with a
// subclass Deep(extra int) and a subclass Odd that redefines x as a
// string, so a deep extent holds both kinds under one attribute.
func rangeDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB("ranges")
	for _, def := range []struct {
		name, super string
		attrs       []Attribute
	}{
		{"Obs", "", []Attribute{{"n", AttrInt}, {"x", AttrFloat}, {"name", AttrString}, {"tags", AttrStringList}}},
		{"Deep", "Obs", []Attribute{{"extra", AttrInt}}},
		{"Odd", "Obs", []Attribute{{"x", AttrString}}},
	} {
		if _, err := db.DefineClass(def.name, def.super, def.attrs...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// randomObject draws attribute values for one object of a class; each
// attribute is missing now and then.
func randomObject(rng *rand.Rand, class string) map[string]any {
	attrs := map[string]any{}
	if rng.Intn(10) > 0 {
		attrs["n"] = int64(rng.Intn(400))
	}
	if rng.Intn(10) > 0 {
		if class == "Odd" {
			attrs["x"] = fmt.Sprintf("%03d", rng.Intn(100))
		} else {
			attrs["x"] = float64(rng.Intn(200)) / 2
		}
	}
	if rng.Intn(10) > 0 {
		attrs["name"] = fmt.Sprintf("o%03d", rng.Intn(300))
	}
	if class == "Deep" {
		attrs["extra"] = int64(rng.Intn(5))
	}
	return attrs
}

// randomOQL draws a query bounding n, x or name with every ordering
// operator, matching and mismatched literal kinds, over Obs or a subclass,
// deep or shallow.
func randomOQL(rng *rand.Rand) string {
	ops := []string{"=", "<", "<=", ">", ">=", "<>"}
	cond := func() string {
		switch rng.Intn(5) {
		case 0, 1:
			a := rng.Intn(400)
			if rng.Intn(3) == 0 {
				return fmt.Sprintf("n %s %d", ops[rng.Intn(len(ops))], a)
			}
			return fmt.Sprintf("n >= %d AND n < %d", a, a+rng.Intn(30))
		case 2:
			return fmt.Sprintf("x %s %d.5", ops[rng.Intn(len(ops))], rng.Intn(100))
		case 3:
			return fmt.Sprintf("x %s '%03d'", ops[rng.Intn(len(ops))], rng.Intn(100))
		default:
			a := rng.Intn(300)
			return fmt.Sprintf("name >= 'o%03d' AND name <= 'o%03d'", a, a+rng.Intn(20))
		}
	}
	where := cond()
	if rng.Intn(3) == 0 {
		where += " AND " + cond()
	}
	class := []string{"Obs", "Obs", "Deep", "Odd"}[rng.Intn(4)]
	deep := ""
	if rng.Intn(2) == 0 {
		deep = " DEEP"
	}
	return fmt.Sprintf("SELECT n, x, name FROM %s%s WHERE %s", class, deep, where)
}

// TestIndexMatchesFullScan interleaves NewObject, Set, Delete and Load at
// random with queries, and requires every answer to equal the full extent
// scan's, deep and shallow, over the root class and its subclasses.
func TestIndexMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := rangeDB(t)
	var ids []int64
	classes := []string{"Obs", "Obs", "Deep", "Odd"}
	for i := 0; i < 1500; i++ {
		c := classes[rng.Intn(len(classes))]
		o, err := db.NewObject(c, randomObject(rng, c))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, o.ID())
	}
	indexed := 0
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(100); {
		case r < 15:
			c := classes[rng.Intn(len(classes))]
			o, err := db.NewObject(c, randomObject(rng, c))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, o.ID())
		case r < 35:
			id := ids[rng.Intn(len(ids))]
			o, ok := db.Get(id)
			if !ok {
				continue
			}
			for k, v := range randomObject(rng, o.Class().Name()) {
				if err := db.Set(id, k, v); err != nil {
					t.Fatal(err)
				}
				break
			}
		case r < 45:
			i := rng.Intn(len(ids))
			if err := db.Delete(ids[i]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:i], ids[i+1:]...)
		case r < 47:
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if db, err = Load(snap); err != nil {
				t.Fatal(err)
			}
		default:
			q := randomOQL(rng)
			checkQuery(t, db, q)
			if usedIndex(t, db, q) {
				indexed++
			}
		}
	}
	if indexed < 300 {
		t.Fatalf("only %d queries took the index path", indexed)
	}
}

// TestIndexNaNAndKinds pins the edges of the numeric run: a NaN value,
// which oqlCompare finds equal to every number, is a candidate for every
// numeric range, and a string literal on a numeric attribute matches only
// the string-valued objects of a subclass that redefines it.
func TestIndexNaNAndKinds(t *testing.T) {
	db := rangeDB(t)
	for i := 0; i < 100; i++ {
		if _, err := db.NewObject("Obs", map[string]any{"n": int64(i), "x": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	odd, err := db.NewObject("Odd", map[string]any{"n": int64(7), "x": "007"})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"SELECT n FROM Obs DEEP WHERE x = 5", "SELECT n FROM Obs DEEP WHERE x <= 1"} {
		checkQuery(t, db, q)
	}
	if err := db.Set(3, "x", math.NaN()); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT n FROM Obs DEEP WHERE x = 5",
		"SELECT n FROM Obs DEEP WHERE x <= 1",
		"SELECT n FROM Obs DEEP WHERE x > 98",
		"SELECT n FROM Obs DEEP WHERE x = '007'",
		"SELECT n FROM Obs DEEP WHERE x >= '000' AND x < '010'",
	} {
		checkQuery(t, db, q)
		if !usedIndex(t, db, q) {
			t.Errorf("%s did not use the index", q)
		}
	}
	_, rows, _ := Query(db, "SELECT n FROM Obs DEEP WHERE x = 5")
	if len(rows) != 2 { // x = 5 and the NaN
		t.Errorf("x = 5 matched %v", rows)
	}
	if _, rows, _ := Query(db, "SELECT n FROM Obs DEEP WHERE x = '007'"); len(rows) != 1 || rows[0][0] != odd.Int("n") {
		t.Errorf("x = '007' matched %v", rows)
	}
	if err := db.Set(3, "x", 3.0); err != nil {
		t.Fatal(err)
	}
	checkQuery(t, db, "SELECT n FROM Obs DEEP WHERE x = 5")
}

// TestQueryReadsUnderLock runs a writer calling Set beside a reader running
// OQL queries and Select predicates over the same attribute; under -race,
// a query that read attribute maps after releasing the database lock
// reports a data race here.
func TestQueryReadsUnderLock(t *testing.T) {
	db := rangeDB(t)
	for i := 0; i < 64; i++ {
		if _, err := db.NewObject("Obs", map[string]any{"n": int64(i), "name": "a"}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := db.Set(int64(1+i%64), "name", fmt.Sprint(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, _, err := Query(db, "SELECT n, name FROM Obs WHERE name <> 'zz'"); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Select("Obs", true, func(o *Object) bool { return o.attrs["name"] == "7" }); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
