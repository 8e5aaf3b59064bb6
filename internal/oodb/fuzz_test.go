package oodb

import (
	"math/rand"
	"testing"
)

// FuzzOQLQuery runs arbitrary OQL text against a seeded database: no input
// may panic, and Query, which may answer from an attribute index, must
// agree with the full extent scan on error presence and on the result.
// The text runs twice, so the second run finds the indexes the first one
// built.
func FuzzOQLQuery(f *testing.F) {
	for _, s := range []string{
		"SELECT * FROM Obs",
		"SELECT n, x FROM Obs DEEP WHERE n >= 10 AND n < 30",
		"SELECT name FROM Deep WHERE name > 'o100' AND name <= 'o120'",
		"SELECT n FROM Odd WHERE x = '005'",
		"SELECT n FROM Obs DEEP WHERE x < 4.5 AND n > 380",
		"SELECT n FROM Obs WHERE n = 7 AND n = 8",
		"SELECT n FROM Obs WHERE n > 100 AND n < 50",
		"SELECT n FROM Obs WHERE name LIKE 'o1%' AND n <= -3",
		"SELECT n FROM Obs WHERE tags = 'x'",
		"SELECT nope FROM Obs",
		"SELECT n FROM Nowhere WHERE n = 1",
		"SELECT n FROM Obs WHERE n = true",
		"SELECT FROM",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, q string) {
		db := rangeDB(t)
		rng := rand.New(rand.NewSource(1))
		classes := []string{"Obs", "Obs", "Deep", "Odd"}
		for i := 0; i < 400; i++ {
			c := classes[rng.Intn(len(classes))]
			if _, err := db.NewObject(c, randomObject(rng, c)); err != nil {
				t.Fatal(err)
			}
		}
		checkQuery(t, db, q)
		checkQuery(t, db, q)
	})
}
