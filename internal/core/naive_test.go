package core

import (
	"testing"

	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/yannakakis"
)

// naiveCount is a shorthand for the brute-force |Q(D)| used by oracle tests.
func naiveCount(q *query.Query, db *relation.Database) (int64, error) {
	return yannakakis.BruteCount(q, db)
}

func TestNaiveFigure1(t *testing.T) {
	res, err := NaiveLocalSensitivity(figure1Query(), figure1DB(), NaiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LS != 4 {
		t.Fatalf("naive LS=%d, want 4 (Example 2.1)", res.LS)
	}
	if res.Best.Relation != "R1" {
		t.Fatalf("naive best relation=%s", res.Best.Relation)
	}
	if res.Count != 1 {
		t.Fatalf("naive Count=%d", res.Count)
	}
}

func TestNaiveDownwardOnly(t *testing.T) {
	// Two relations joined on B where the only candidates that matter are
	// deletions: make the representative domain empty by using disjoint
	// active domains except one value.
	db := relation.MustNewDatabase(
		relation.MustNew("R1", []string{"A", "B"}, []relation.Tuple{{1, 5}, {1, 5}}),
		relation.MustNew("R2", []string{"B", "C"}, []relation.Tuple{{5, 7}}),
	)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
	}, nil)
	res, err := NaiveLocalSensitivity(q, db, NaiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// δ(R2(5,7)) by deletion: removes both outputs → 2.
	if res.LS != 2 || res.Best.Relation != "R2" {
		t.Fatalf("LS=%d via %s, want 2 via R2", res.LS, res.Best.Relation)
	}
}

func TestNaiveBudget(t *testing.T) {
	db := figure3DB()
	q := figure3Query()
	if _, err := NaiveLocalSensitivity(q, db, NaiveOptions{MaxCandidates: 3}); err == nil {
		t.Fatal("tiny budget not enforced")
	}
}

func TestRepresentativeDomains(t *testing.T) {
	// Example 3.1: the representative domain of A in R1 is {a1,a2} as the
	// intersection of the active domains in R2 and R3.
	q := figure1Query()
	db := figure1DB()
	a, _ := q.Atom("R1")
	doms, err := representativeDomains(q, db, a)
	if err != nil {
		t.Fatal(err)
	}
	// A: {1,2}; B: {1,2}; C occurs only in R1 → single arbitrary value.
	if len(doms[0]) != 2 || doms[0][0] != 1 || doms[0][1] != 2 {
		t.Fatalf("dom(A)=%v", doms[0])
	}
	if len(doms[1]) != 2 {
		t.Fatalf("dom(B)=%v", doms[1])
	}
	if len(doms[2]) != 1 {
		t.Fatalf("dom(C)=%v, want singleton", doms[2])
	}
}

// TestNaiveSelectionOnPrivateVariable is the regression case for a
// selection on a variable private to the inserted atom: the oracle used to
// pick an arbitrary active value for it (here C=1, failing R1.C >= 5), so
// no insertion into R1 counted and it reported LS 0. Inserting R1(x,2,5)
// adds 1·3 answers, which is what the engine reports.
func TestNaiveSelectionOnPrivateVariable(t *testing.T) {
	db := relation.MustNewDatabase(
		relation.MustNew("R1", []string{"A", "B", "C"}, []relation.Tuple{{1, 1, 1}, {2, 2, 2}, {3, 1, 3}, {4, 3, 4}}),
		relation.MustNew("R2", []string{"B", "D"}, []relation.Tuple{{1, 1}, {2, 1}, {2, 2}, {2, 3}, {3, 4}}),
		relation.MustNew("R3", []string{"D", "E"}, []relation.Tuple{{1, 1}, {2, 1}, {3, 1}, {4, 2}}),
	)
	q := query.MustNew("q", []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B", "C"}},
		{Relation: "R2", Vars: []string{"B", "D"}},
		{Relation: "R3", Vars: []string{"D", "E"}},
	}, map[string][]query.Predicate{"R1": {{Var: "C", Op: query.Ge, Value: 5}}})
	engine, err := LocalSensitivity(q, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NaiveLocalSensitivity(q, db, NaiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if engine.LS != 3 || naive.LS != 3 {
		t.Fatalf("LS engine=%d naive=%d, want 3 from both", engine.LS, naive.LS)
	}
	if tr := naive.PerRelation["R1"]; tr.Values[1] != 2 || tr.Values[2] < 5 {
		t.Fatalf("naive R1 tuple %v, want (x, 2, c>=5)", tr.Values)
	}
}

func TestIntersectSorted(t *testing.T) {
	got := intersectSorted([]int64{1, 2, 4, 6}, []int64{2, 3, 4, 7})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("intersectSorted=%v", got)
	}
	if out := intersectSorted(nil, []int64{1}); len(out) != 0 {
		t.Fatalf("empty intersect=%v", out)
	}
}

func TestEnumerate(t *testing.T) {
	var seen []relation.Tuple
	err := enumerate([][]int64{{1, 2}, {7}}, func(t relation.Tuple) error {
		seen = append(seen, t.Clone())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || !seen[0].Equal(relation.Tuple{1, 7}) || !seen[1].Equal(relation.Tuple{2, 7}) {
		t.Fatalf("enumerate=%v", seen)
	}
	// Empty domain short-circuits.
	calls := 0
	if err := enumerate([][]int64{{1}, {}}, func(relation.Tuple) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatal("enumerate over empty domain called f")
	}
}

func TestRemoveOne(t *testing.T) {
	r := relation.MustNew("R", []string{"A"}, []relation.Tuple{{1}, {2}, {1}})
	if err := removeOne(r, relation.Tuple{1}); err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	if err := removeOne(r, relation.Tuple{9}); err == nil {
		t.Fatal("removing absent tuple succeeded")
	}
}

func TestPickValue(t *testing.T) {
	if v, ok := pickValue(nil); !ok || v < -1<<40 {
		t.Fatalf("unconstrained pickValue=(%d,%v)", v, ok)
	}
	v, ok := pickValue([]query.Predicate{{Var: "X", Op: query.Ge, Value: 5}, {Var: "X", Op: query.Lt, Value: 7}})
	if !ok || v < 5 || v >= 7 {
		t.Fatalf("pickValue=(%d,%v)", v, ok)
	}
	v, ok = pickValue([]query.Predicate{{Var: "X", Op: query.Eq, Value: 3}})
	if !ok || v != 3 {
		t.Fatalf("pickValue Eq=(%d,%v)", v, ok)
	}
	_, ok = pickValue([]query.Predicate{{Var: "X", Op: query.Lt, Value: 0}, {Var: "X", Op: query.Gt, Value: 0}})
	if ok {
		t.Fatal("contradiction satisfied")
	}
	v, ok = pickValue([]query.Predicate{
		{Var: "X", Op: query.Ge, Value: 1},
		{Var: "X", Op: query.Le, Value: 3},
		{Var: "X", Op: query.Ne, Value: 1},
		{Var: "X", Op: query.Ne, Value: 2},
	})
	if !ok || v != 3 {
		t.Fatalf("pickValue Ne chain=(%d,%v)", v, ok)
	}
	_, ok = pickValue([]query.Predicate{
		{Var: "X", Op: query.Eq, Value: 2},
		{Var: "X", Op: query.Ne, Value: 2},
	})
	if ok {
		t.Fatal("Eq+Ne contradiction satisfied")
	}
}
