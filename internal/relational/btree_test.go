package relational

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeInsertLookup(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 1000; i++ {
		bt.Insert(IntValue(i%100), i)
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
	}
	if bt.Keys() != 100 {
		t.Fatalf("Keys = %d", bt.Keys())
	}
	rows := bt.Lookup(IntValue(7))
	if len(rows) != 10 {
		t.Fatalf("Lookup(7) returned %d rows", len(rows))
	}
	for _, id := range rows {
		if id%100 != 7 {
			t.Errorf("wrong row %d under key 7", id)
		}
	}
	if got := bt.Lookup(IntValue(12345)); got != nil {
		t.Errorf("Lookup(missing) = %v", got)
	}
}

func TestBTreeOrderedAscend(t *testing.T) {
	bt := newBTree()
	perm := rand.New(rand.NewSource(42)).Perm(500)
	for i, p := range perm {
		bt.Insert(IntValue(int64(p)), int64(i))
	}
	var keys []int64
	bt.Ascend(func(k Value, rows []int64) bool {
		keys = append(keys, k.Int)
		return true
	})
	if len(keys) != 500 {
		t.Fatalf("visited %d keys", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("Ascend out of order")
	}
	if msg := bt.checkInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 100; i++ {
		bt.Insert(IntValue(i), i)
	}
	lo, hi := IntValue(10), IntValue(20)
	var got []int64
	bt.Range(&lo, &hi, true, true, func(k Value, rows []int64) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("inclusive range = %v", got)
	}
	got = nil
	bt.Range(&lo, &hi, false, false, func(k Value, rows []int64) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 9 || got[0] != 11 || got[8] != 19 {
		t.Fatalf("exclusive range = %v", got)
	}
	got = nil
	bt.Range(&lo, nil, true, true, func(k Value, rows []int64) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 90 {
		t.Fatalf("open-ended range visited %d", len(got))
	}
}

func TestBTreeDeleteAndCompaction(t *testing.T) {
	bt := newBTree()
	for i := int64(0); i < 1000; i++ {
		bt.Insert(IntValue(i), i)
	}
	for i := int64(0); i < 900; i++ {
		if !bt.Delete(IntValue(i), i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if bt.Len() != 100 || bt.Keys() != 100 {
		t.Fatalf("after deletes: len=%d keys=%d", bt.Len(), bt.Keys())
	}
	for i := int64(900); i < 1000; i++ {
		if rows := bt.Lookup(IntValue(i)); len(rows) != 1 || rows[0] != i {
			t.Fatalf("Lookup(%d) = %v after compaction", i, rows)
		}
	}
	if bt.Delete(IntValue(5), 5) {
		t.Error("double delete succeeded")
	}
	if bt.Delete(IntValue(950), 999) {
		t.Error("delete with wrong rowID succeeded")
	}
	if msg := bt.checkInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestBTreeMixedKeyTypes(t *testing.T) {
	bt := newBTree()
	bt.Insert(TextValue("beta"), 1)
	bt.Insert(TextValue("alpha"), 2)
	bt.Insert(NullValue(), 3)
	var order []string
	bt.Ascend(func(k Value, rows []int64) bool {
		order = append(order, k.String())
		return true
	})
	// NULL sorts first.
	if len(order) != 3 || order[0] != "NULL" || order[1] != "alpha" {
		t.Fatalf("order = %v", order)
	}
}

// TestBTreeQuickInvariants is a property test: any sequence of inserts and
// deletes preserves structural invariants and agrees with a reference map.
func TestBTreeQuickInvariants(t *testing.T) {
	f := func(ops []int16) bool {
		bt := newBTree()
		ref := make(map[int64]map[int64]int) // key -> rowID -> count
		nextRow := int64(0)
		for _, op := range ops {
			key := int64(op % 64)
			if key < 0 {
				key = -key
			}
			if op >= 0 { // insert
				nextRow++
				bt.Insert(IntValue(key), nextRow)
				if ref[key] == nil {
					ref[key] = make(map[int64]int)
				}
				ref[key][nextRow]++
			} else { // delete an arbitrary existing row under key, if any
				var victim int64 = -1
				for id := range ref[key] {
					victim = id
					break
				}
				if victim >= 0 {
					if !bt.Delete(IntValue(key), victim) {
						return false
					}
					delete(ref[key], victim)
					if len(ref[key]) == 0 {
						delete(ref, key)
					}
				}
			}
		}
		if msg := bt.checkInvariants(); msg != "" {
			t.Logf("invariant: %s", msg)
			return false
		}
		total := 0
		for key, rows := range ref {
			got := bt.Lookup(IntValue(key))
			if len(got) != len(rows) {
				t.Logf("key %d: got %d rows, want %d", key, len(got), len(rows))
				return false
			}
			total += len(rows)
		}
		return bt.Len() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeKeyInjective checks that distinct value tuples encode to
// distinct keys (the property GROUP BY and hash joins rely on).
func TestEncodeKeyInjective(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		k1 := encodeKey([]Value{IntValue(a), TextValue(s1)})
		k2 := encodeKey([]Value{IntValue(b), TextValue(s2)})
		if a == b && s1 == s2 {
			return k1 == k2
		}
		// Strings containing the separator could collide in theory; the
		// encoding prefixes each component with its kind and uses a length
		// implicit terminator. Verify no false equality for simple values.
		if k1 == k2 {
			return a == b && s1 == s2
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareProperties(t *testing.T) {
	// Compare must be antisymmetric and transitive-ish over ints.
	f := func(a, b int64) bool {
		va, vb := IntValue(a), IntValue(b)
		c1, c2 := Compare(va, vb), Compare(vb, va)
		return c1 == -c2 && (c1 == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// NULL sorts before everything and equals itself.
	if Compare(NullValue(), NullValue()) != 0 {
		t.Error("NULL != NULL in ordering")
	}
	if Compare(NullValue(), IntValue(-1<<62)) != -1 {
		t.Error("NULL does not sort first")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(TextValue("42"), TypeInt)
	if err != nil || v.Int != 42 {
		t.Errorf("text->int: %v %v", v, err)
	}
	v, err = Coerce(IntValue(3), TypeFloat)
	if err != nil || v.Float != 3 {
		t.Errorf("int->float: %v %v", v, err)
	}
	v, err = Coerce(FloatValue(3.9), TypeInt)
	if err != nil || v.Int != 3 {
		t.Errorf("float->int: %v %v", v, err)
	}
	if _, err = Coerce(TextValue("not a date"), TypeDate); err == nil {
		t.Error("bad date coerced")
	}
	v, err = Coerce(NullValue(), TypeInt)
	if err != nil || !v.Null {
		t.Errorf("null coercion: %v %v", v, err)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%%", true},
		{"a%b", "a%b", true}, // literal via wildcard
		{"medical research", "%research", true},
	}
	for _, c := range cases {
		if got := matchLike(c.s, c.p); got != c.want {
			t.Errorf("LIKE(%q, %q) = %t, want %t", c.s, c.p, got, c.want)
		}
	}
}

// TestBTreeRangeMatchesBruteForce is a property test of the seeking Range:
// over trees with duplicate keys, NULL keys and tombstones, every random
// [lo, hi] with random inclusivity and open ends visits exactly the live
// keys a brute-force filter of the sorted key set selects, in order.
func TestBTreeRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		bt := newBTree()
		ref := make(map[int64]int) // live key -> row count; key -1 stands for NULL
		keyOf := func(k int64) Value {
			if k < 0 {
				return NullValue()
			}
			return IntValue(k)
		}
		span := int64(20 + rng.Intn(400))
		n := 1 + rng.Intn(600)
		rowKeys := make(map[int64]int64)
		for id := int64(1); id <= int64(n); id++ {
			k := rng.Int63n(span) - 1
			bt.Insert(keyOf(k), id)
			rowKeys[id] = k
			ref[k]++
		}
		for id, k := range rowKeys { // tombstone about a third of the rows
			if rng.Intn(3) == 0 {
				if !bt.Delete(keyOf(k), id) {
					t.Fatalf("Delete(%d, %d) failed", k, id)
				}
				if ref[k]--; ref[k] == 0 {
					delete(ref, k)
				}
			}
		}
		var live []int64
		for k := range ref {
			live = append(live, k)
		}
		sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
		for q := 0; q < 50; q++ {
			var lo, hi *Value
			loK, hiK := rng.Int63n(span+4)-3, rng.Int63n(span+4)-3
			if rng.Intn(5) > 0 {
				v := keyOf(loK)
				lo = &v
			}
			if rng.Intn(5) > 0 {
				v := keyOf(hiK)
				hi = &v
			}
			loIncl, hiIncl := rng.Intn(2) == 0, rng.Intn(2) == 0
			var want []int64
			for _, k := range live {
				c := Compare(keyOf(k), keyOf(loK))
				if lo != nil && (c < 0 || c == 0 && !loIncl) {
					continue
				}
				c = Compare(keyOf(k), keyOf(hiK))
				if hi != nil && (c > 0 || c == 0 && !hiIncl) {
					continue
				}
				want = append(want, k)
			}
			var got []int64
			bt.Range(lo, hi, loIncl, hiIncl, func(k Value, rows []int64) bool {
				key := int64(-1)
				if !k.Null {
					key = k.Int
				}
				if len(rows) != ref[key] {
					t.Fatalf("key %d: %d rows, want %d", key, len(rows), ref[key])
				}
				got = append(got, key)
				return true
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d: Range(%v %v, %v %v) = %v, want %v",
					trial, lo, loIncl, hi, hiIncl, got, want)
			}
			// Stopping early visits a prefix of the same walk.
			if len(want) > 1 {
				var first []int64
				bt.Range(lo, hi, loIncl, hiIncl, func(k Value, _ []int64) bool {
					first = append(first, k.Int)
					return len(first) < 2
				})
				if len(first) != 2 {
					t.Fatalf("early stop visited %d keys", len(first))
				}
			}
		}
	}
}
