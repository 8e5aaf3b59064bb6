package relational

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// rangePair builds a batched and a row-oracle database over one 2,400-row
// table: a PRIMARY KEY id, a secondary index on k holding NULLs and
// duplicate keys, an indexed text column and an unindexed float column.
func rangePair(t *testing.T) (vec, row *Database) {
	t.Helper()
	vec = NewDatabase("vec", DialectOracle)
	row = NewDatabase("row", DialectOracle)
	row.rowExec = true
	var b strings.Builder
	b.WriteString("CREATE TABLE r (id INT PRIMARY KEY, k INT, s VARCHAR(8), f FLOAT);\n")
	b.WriteString("CREATE INDEX r_k ON r (k);\nCREATE INDEX r_s ON r (s);\n")
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2400; i += 200 {
		b.WriteString("INSERT INTO r VALUES ")
		for j := i; j < i+200; j++ {
			if j > i {
				b.WriteByte(',')
			}
			k := fmt.Sprint(rng.Intn(300)) // ~8 rows per key
			if rng.Intn(10) == 0 {
				k = "NULL"
			}
			fmt.Fprintf(&b, "(%d, %s, 's%04d', %d.25)", j, k, rng.Intn(2000), rng.Intn(100))
		}
		b.WriteString(";\n")
	}
	for _, db := range []*Database{vec, row} {
		if _, err := db.ExecScript(b.String()); err != nil {
			t.Fatal(err)
		}
	}
	return vec, row
}

// execBoth applies one statement to both databases.
func execBoth(t *testing.T, vec, row *Database, sql string) {
	t.Helper()
	for _, db := range []*Database{vec, row} {
		if _, err := db.ExecScript(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}

// accessPath returns the scan line of a single-table EXPLAIN.
func accessPath(t *testing.T, db *Database, q string) string {
	t.Helper()
	res, err := db.Query("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		line := strings.TrimSpace(r[0].Str)
		if strings.Contains(line, "scan") || strings.Contains(line, "index") {
			return line
		}
	}
	t.Fatalf("EXPLAIN %s has no scan line: %v", q, res.Rows)
	return ""
}

// rangeQueries draws filters that bound the indexed columns: every
// comparison operator, literal-first forms, float literals against INT
// columns, BETWEEN and NOT BETWEEN, empty and contradictory ranges, several
// bounds on one side, and conjunctions over two indexed columns.
func rangeQueries(rng *rand.Rand, n int) []string {
	cmp := []string{"<", "<=", ">", ">="}
	col := func() (string, int) {
		if rng.Intn(2) == 0 {
			return "id", 2600
		}
		return "k", 320
	}
	lit := func(span int) string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("%d.5", rng.Intn(span))
		}
		return fmt.Sprint(rng.Intn(span))
	}
	var out []string
	for len(out) < n {
		c, span := col()
		var where string
		switch rng.Intn(9) {
		case 0:
			where = fmt.Sprintf("%s %s %s", c, cmp[rng.Intn(4)], lit(span))
		case 1:
			where = fmt.Sprintf("%s %s %s", lit(span), cmp[rng.Intn(4)], c)
		case 2:
			a := rng.Intn(span)
			where = fmt.Sprintf("%s >= %d AND %s < %d", c, a, c, a+1+rng.Intn(span/20))
		case 3:
			a := rng.Intn(span)
			where = fmt.Sprintf("%s BETWEEN %d AND %s", c, a, lit(span))
		case 4:
			a := rng.Intn(span)
			where = fmt.Sprintf("%s NOT BETWEEN %d AND %d", c, a, a+span/30)
		case 5:
			a := rng.Intn(span)
			where = fmt.Sprintf("%s > %d AND %s < %d", c, a, c, a-rng.Intn(3))
		case 6:
			a, b := rng.Intn(2600), rng.Intn(320)
			where = fmt.Sprintf("id >= %d AND id < %d AND k > %d AND k <= %d", a, a+40, b, b+2)
		case 7:
			// Several bounds on one side, equal bounds of mixed inclusivity.
			a, b := rng.Intn(span), rng.Intn(span)
			where = fmt.Sprintf("%s > %d AND %s >= %d AND %s <= %d AND %s < %s", c, a, c, a+rng.Intn(2), c, b, c, lit(span))
		default:
			a := rng.Intn(2000)
			where = fmt.Sprintf("s >= 's%04d' AND s < 's%04d' AND f > %d", a, a+rng.Intn(40), rng.Intn(100))
		}
		switch rng.Intn(3) {
		case 0:
			out = append(out, "SELECT * FROM r WHERE "+where)
		case 1:
			out = append(out, "SELECT id, k FROM r WHERE "+where+" ORDER BY k, id")
		default:
			out = append(out, "SELECT k, COUNT(*), MIN(id) FROM r WHERE "+where+" GROUP BY k")
		}
	}
	return out
}

// TestIndexRangeMatchesRowOracle compares the batched executor's index range
// path with the row-at-a-time oracle, which always scans the whole table,
// byte for byte — across deletes that leave tombstones, key updates and a
// rolled-back transaction. It also requires that the index path really ran
// for a good share of the queries.
func TestIndexRangeMatchesRowOracle(t *testing.T) {
	vec, row := rangePair(t)
	rng := rand.New(rand.NewSource(5))
	ranged := 0
	check := func(stage string) {
		t.Helper()
		for _, q := range rangeQueries(rng, 120) {
			checkSameResult(t, vec, row, q)
			if strings.HasPrefix(accessPath(t, vec, q), "index range") {
				ranged++
			}
		}
		t.Logf("%s: %d queries took the index range path so far", stage, ranged)
	}
	check("fresh")

	// Tombstones: 100 deletes stay below the compaction threshold.
	execBoth(t, vec, row, "DELETE FROM r WHERE id >= 500 AND id < 600")
	if tb, _ := vec.Table("r"); tb.dead == 0 {
		t.Fatal("expected tombstoned slots before compaction")
	}
	check("tombstones")

	// Key updates move rows between index keys, on both indexes.
	execBoth(t, vec, row, "UPDATE r SET k = k + 7 WHERE id >= 1000 AND id < 1100")
	execBoth(t, vec, row, "UPDATE r SET id = id + 10000 WHERE id >= 2000 AND id < 2050")
	execBoth(t, vec, row, "UPDATE r SET k = NULL WHERE id >= 40 AND id < 60")
	check("key updates")

	// A rolled-back transaction: the restored rows reappear in their old
	// slots and under their old keys.
	for _, db := range []*Database{vec, row} {
		s := db.NewSession()
		for _, q := range []string{
			"BEGIN",
			"DELETE FROM r WHERE id >= 300 AND id < 320",
			"UPDATE r SET k = 999 WHERE id >= 700 AND id < 720",
			"INSERT INTO r VALUES (5000, 1, 's0001', 1.25)",
			"ROLLBACK",
		} {
			if _, err := s.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	check("rollback")

	if ranged < 150 {
		t.Fatalf("only %d of 480 queries took the index range path", ranged)
	}
}

// TestIndexRangeAccessPath pins the access-path choice EXPLAIN reports: a
// narrow range on the primary key or a secondary index is an index range; a
// range admitting nearly every row, a range behind a filter that may fail,
// and a text literal against a numeric key stay sequential scans.
func TestIndexRangeAccessPath(t *testing.T) {
	vec, _ := rangePair(t)
	cases := []struct{ q, want string }{
		{"SELECT * FROM r WHERE id >= 100 AND id < 120", "index range pk_r(id)"},
		{"SELECT * FROM r WHERE 120 > id AND id >= 100.5", "index range pk_r(id)"},
		{"SELECT * FROM r WHERE id BETWEEN 5 AND 24", "index range pk_r(id)"},
		{"SELECT * FROM r WHERE k BETWEEN 5 AND 6", "index range r_k(k)"},
		{"SELECT * FROM r WHERE id > 10 AND id < 5", "index range pk_r(id)"},
		{"SELECT * FROM r WHERE id >= 24 AND id < 2400", "seq scan r"},
		{"SELECT * FROM r WHERE f > 1 AND id < 2376", "seq scan r"},
		{"SELECT * FROM r WHERE id NOT BETWEEN 5 AND 24", "seq scan r"},
		{"SELECT * FROM r WHERE id < 20 AND f / 0 > 1", "seq scan r"},
		{"SELECT * FROM r WHERE id < '20'", "seq scan r"},
		{"SELECT * FROM r WHERE id = 20", "index lookup pk_r(id)"},
	}
	for _, c := range cases {
		if got := accessPath(t, vec, c.q); !strings.HasPrefix(got, c.want) {
			t.Errorf("EXPLAIN %s:\n  got  %q\n  want %q…", c.q, got, c.want)
		}
	}
}
