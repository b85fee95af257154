package core_test

import (
	"testing"

	"tsens/internal/core"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// TestParallelismInvarianceGHD extends TestParallelismInvariance to the
// paper's GHD queries: q3's three-member bag (a cross product in the bag
// join), and q4 and qo over the Facebook fixture. Every relation's most
// sensitive tuple must be the same at each Parallelism, not only LS.
func TestParallelismInvarianceGHD(t *testing.T) {
	tp := workload.TPCHData(0.0005, 5)
	fb := workload.FacebookDataSized(40, 200, 50, 5)
	for _, c := range []struct {
		spec *workload.Spec
		db   *relation.Database
	}{
		{workload.Q3(), tp},
		{workload.ByName("q4"), fb},
		{workload.ByName("qo"), fb},
	} {
		solve := func(p int) *core.Result {
			t.Helper()
			opts := c.spec.Options()
			opts.Parallelism = p
			res, err := core.LocalSensitivity(c.spec.Query, c.db, opts)
			if err != nil {
				t.Fatalf("%s par=%d: %v", c.spec.Name, p, err)
			}
			return res
		}
		base := solve(1)
		if base.LS == 0 || len(base.PerRelation) < 2 {
			t.Fatalf("%s: degenerate fixture (LS=%d, %d relations)", c.spec.Name, base.LS, len(base.PerRelation))
		}
		for _, p := range []int{2, 8} {
			if err := core.ResultDiff(solve(p), base); err != nil {
				t.Fatalf("%s par=%d vs sequential: %v", c.spec.Name, p, err)
			}
		}
	}
}
