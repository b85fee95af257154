package main

// Output checks. The reference for a served view is core.LocalSensitivity
// on the starting fixture with the acknowledged updates replayed onto it in
// log order through relation.RowSet, the same set semantics the server's
// master copy uses (a delete of an absent tuple is skipped). It never
// touches the incremental engine.

import (
	"fmt"
	"sort"
	"sync"

	"tsens/internal/core"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/workload"
)

// acks collects acknowledged updates as ranges of the workload's update
// stream with the log position the server gave the first of each range.
// It holds indexes, not copies, so it adds almost nothing to the live heap
// the benchmark reports.
type acks struct {
	mu     sync.Mutex
	ranges []ackedRange
}

type ackedRange struct {
	lsn   int64 // log position of stream[at]
	at, n int
}

// add records stream[at:at+n] acknowledged at log positions [from, from+n).
func (a *acks) add(from int64, at, n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ranges = append(a.ranges, ackedRange{from, at, n})
}

// replay returns a copy of db with the acknowledged updates of stream
// applied in log order.
func (a *acks) replay(db *relation.Database, stream []relation.Update) *relation.Database {
	a.mu.Lock()
	rs := append([]ackedRange(nil), a.ranges...)
	a.mu.Unlock()
	sort.Slice(rs, func(i, j int) bool { return rs[i].lsn < rs[j].lsn })
	out := db.Clone()
	sets := make(map[string]*relation.RowSet)
	for _, ar := range rs {
		for _, up := range stream[ar.at : ar.at+ar.n] {
			r := out.Relation(up.Rel)
			set := sets[up.Rel]
			if set == nil {
				set = relation.NewRowSet(r)
				sets[up.Rel] = set
			}
			if up.Insert {
				set.Insert(r, up.Row)
			} else {
				set.TryRemove(r, up.Row)
			}
		}
	}
	return out
}

// served is one registered query and the spec it was built from.
type served struct {
	id      string
	spec    *workload.Spec
	private bool // registered for TSensDP releases on spec.PrimaryPrivate
}

// checkViews compares every served query's current view with the reference
// over ref, counting one check per query.
func (b *bench) checkViews(srv *serve.Server, queries []served, ref *relation.Database) {
	want := make(map[string]*core.Result)
	for _, q := range queries {
		exp, ok := want[q.spec.Name]
		if !ok {
			var err error
			if exp, err = core.LocalSensitivity(q.spec.Query, ref, q.spec.Options()); err != nil {
				b.rec.check("reference "+q.spec.Name, err)
				continue
			}
			want[q.spec.Name] = exp
		}
		v, err := srv.View(q.id)
		if err == nil {
			err = sameView(v, exp)
		}
		b.rec.check("view "+q.id, err)
	}
}

// sameView reports how a view differs from the reference result.
func sameView(v *serve.View, want *core.Result) error {
	if v.Count != want.Count {
		return fmt.Errorf("count %d, reference %d", v.Count, want.Count)
	}
	if v.LS == nil || v.LS.LS != want.LS {
		got := int64(-1)
		if v.LS != nil {
			got = v.LS.LS
		}
		return fmt.Errorf("LS %d, reference %d", got, want.LS)
	}
	return nil
}

// sameResult reports how a from-scratch result differs from its reference:
// count, LS, and every relation's highest tuple sensitivity.
func sameResult(got, want *core.Result) error {
	if got.Count != want.Count || got.LS != want.LS {
		return fmt.Errorf("count/LS %d/%d, reference %d/%d", got.Count, got.LS, want.Count, want.LS)
	}
	if len(got.PerRelation) != len(want.PerRelation) {
		return fmt.Errorf("%d relations, reference %d", len(got.PerRelation), len(want.PerRelation))
	}
	for rel, w := range want.PerRelation {
		g, ok := got.PerRelation[rel]
		if !ok || g.Sensitivity != w.Sensitivity {
			return fmt.Errorf("relation %s: sensitivity differs from reference %d", rel, w.Sensitivity)
		}
	}
	return nil
}

// viewState is what a reopen must reproduce of one view.
type viewState struct {
	epoch, count, ls int64
}

func captureViews(srv *serve.Server, queries []served) (map[string]viewState, error) {
	out := make(map[string]viewState, len(queries))
	for _, q := range queries {
		v, err := srv.View(q.id)
		if err != nil {
			return nil, err
		}
		out[q.id] = viewState{v.Epoch, v.Count, v.LS.LS}
	}
	return out, nil
}

// checkReopen closes a durable server gracefully, reopens it from its WAL
// directory alone and checks that every view comes back as it was.
func (b *bench) checkReopen(srv *serve.Server, dir string, queries []served) {
	before, err := captureViews(srv, queries)
	srv.Close()
	if err != nil {
		b.rec.check("views before reopen", err)
		return
	}
	re, err := serve.New(nil, serve.Options{WALDir: dir})
	if err != nil {
		b.rec.check("reopen", err)
		return
	}
	defer re.Close()
	after, err := captureViews(re, queries)
	if err != nil {
		b.rec.check("views after reopen", err)
		return
	}
	for _, q := range queries {
		var err error
		if after[q.id] != before[q.id] {
			err = fmt.Errorf("reopened view %+v, before close %+v", after[q.id], before[q.id])
		}
		b.rec.check("reopen "+q.id, err)
	}
}
