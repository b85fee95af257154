package core

import (
	"fmt"
	"math/rand"
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
)

// TestParallelismInvariance checks that the engine returns identical results
// at every Parallelism setting, on the Figure 1 fixture, on randomized
// star-join instances (several independent subtrees, exercising concurrent
// botjoin/topjoin scheduling and member scans), and on a path where every
// relation ties for LS. Best must be the first maximum in member order.
func TestParallelismInvariance(t *testing.T) {
	type instance struct {
		name string
		q    *query.Query
		db   *relation.Database
	}
	instances := []instance{{"figure1", figure1Query(), figure1DB()}}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		db, q := randomStar(rng, 4, 60)
		instances = append(instances, instance{fmt.Sprintf("star%d", trial), q, db})
	}

	var rels []*relation.Relation
	var atoms []query.Atom
	for i := 0; i < 6; i++ {
		name, vars := fmt.Sprintf("R%d", i), []string{fmt.Sprintf("X%d", i), fmt.Sprintf("X%d", i+1)}
		rels = append(rels, relation.MustNew(name, vars, []relation.Tuple{{1, 1}}))
		atoms = append(atoms, query.Atom{Relation: name, Vars: vars})
	}
	instances = append(instances, instance{"ties", query.MustNew("ties", atoms, nil), relation.MustNewDatabase(rels...)})

	for _, inst := range instances {
		var base *Result
		for _, p := range []int{1, 0, 2, 8} {
			got, err := LocalSensitivity(inst.q, inst.db, Options{Parallelism: p})
			if err != nil {
				t.Fatalf("%s par=%d: %v", inst.name, p, err)
			}
			for _, a := range inst.q.Atoms {
				if got.PerRelation[a.Relation].Sensitivity == got.LS {
					if got.Best.Relation != a.Relation {
						t.Fatalf("%s par=%d: best is %s, want the first maximum %s", inst.name, p, got.Best.Relation, a.Relation)
					}
					break
				}
			}
			if base == nil {
				base = got
			} else if err := resultDiff(got, base); err != nil {
				t.Fatalf("%s par=%d vs sequential: %v", inst.name, p, err)
			}
		}
	}
}

// resultDiff reports the first difference between two results: LS, Count,
// the Best tuple, or any relation's most sensitive tuple (values, wildcards,
// database membership and sensitivity).
func resultDiff(got, want *Result) error {
	if got.LS != want.LS || got.Count != want.Count {
		return fmt.Errorf("(LS=%d, Count=%d), want (LS=%d, Count=%d)", got.LS, got.Count, want.LS, want.Count)
	}
	if err := tupleDiff(got.Best, want.Best); err != nil {
		return fmt.Errorf("best: %w", err)
	}
	if len(got.PerRelation) != len(want.PerRelation) {
		return fmt.Errorf("%d relations, want %d", len(got.PerRelation), len(want.PerRelation))
	}
	for rel, w := range want.PerRelation {
		if err := tupleDiff(got.PerRelation[rel], w); err != nil {
			return fmt.Errorf("relation %s: %w", rel, err)
		}
	}
	return nil
}

func tupleDiff(got, want *TupleResult) error {
	if got == nil || want == nil {
		if got != want {
			return fmt.Errorf("%+v, want %+v", got, want)
		}
		return nil
	}
	if got.Relation != want.Relation || got.Sensitivity != want.Sensitivity || got.InDatabase != want.InDatabase ||
		!got.Values.Equal(want.Values) || fmt.Sprint(got.Wildcard) != fmt.Sprint(want.Wildcard) {
		return fmt.Errorf("%+v, want %+v", *got, *want)
	}
	return nil
}

// randomStar builds a star join R0(X1..Xk) ⋈ S1(X1,Y1) ⋈ … ⋈ Sk(Xk,Yk):
// the satellites are independent subtrees under the center.
func randomStar(rng *rand.Rand, k, rows int) (*relation.Database, *query.Query) {
	center := make([]relation.Tuple, 0, rows)
	centerAttrs := make([]string, k)
	for i := range centerAttrs {
		centerAttrs[i] = fmt.Sprintf("X%d", i)
	}
	for i := 0; i < rows; i++ {
		t := make(relation.Tuple, k)
		for j := range t {
			t[j] = int64(rng.Intn(5))
		}
		center = append(center, t)
	}
	rels := []*relation.Relation{relation.MustNew("R0", centerAttrs, center)}
	atoms := []query.Atom{{Relation: "R0", Vars: centerAttrs}}
	for j := 0; j < k; j++ {
		var satRows []relation.Tuple
		for i := 0; i < rows/2; i++ {
			satRows = append(satRows, relation.Tuple{int64(rng.Intn(5)), int64(rng.Intn(4))})
		}
		name := fmt.Sprintf("S%d", j)
		x, y := fmt.Sprintf("X%d", j), fmt.Sprintf("Y%d", j)
		rels = append(rels, relation.MustNew(name, []string{x, y}, satRows))
		atoms = append(atoms, query.Atom{Relation: name, Vars: []string{x, y}})
	}
	return relation.MustNewDatabase(rels...), query.MustNew("star", atoms, nil)
}
