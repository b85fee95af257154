package incremental

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"tsens/internal/core"
	"tsens/internal/obs"
	"tsens/internal/query"
	"tsens/internal/relation"
	"tsens/internal/workload"
)

// openAdopted opens a session over db and attaches it to store.
func openAdopted(t *testing.T, q *query.Query, db *relation.Database, opts core.Options, store *PlanStore) (*Session, AdoptStats) {
	t.Helper()
	s, err := Open(q, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Adopt(store)
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	return s, st
}

// TestSharedDifferentialIdentical replays random update streams through
// three identically-registered sessions attached to one PlanStore, rotating
// which session applies first so lead/follower election is exercised from
// every seat, and asserts each session equals the from-scratch solver after
// every step. Covers every query shape of the private differential test.
func TestSharedDifferentialIdentical(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			q, db, opts := buildCase(t, tc, rng, 12, 4)
			m := newMirror(db)
			store := NewPlanStore()
			var sessions []*Session
			for i := 0; i < 3; i++ {
				s, st := openAdopted(t, q, db, opts, store)
				if i > 0 && (!st.FullShare() || !st.ResidueShared) {
					t.Fatalf("session %d of identical query did not fully share: %+v", i, st)
				}
				sessions = append(sessions, s)
			}
			if got := store.Stats(); got.SharedResidues != 1 || got.Subscribers != 3 {
				t.Fatalf("store stats after 3 identical adopts: %+v", got)
			}
			rels := tc.rels
			if rels == nil {
				for _, a := range tc.atoms {
					rels = append(rels, a.Relation)
				}
			}
			for step := 0; step < 60; step++ {
				up := randomUpdate(rng, m, rels, 4)
				m.apply(t, up)
				for k := range sessions {
					s := sessions[(step+k)%len(sessions)]
					if err := s.Apply([]Update{up}); err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
				}
				for si, s := range sessions {
					checkAgainstScratch(t, s, m, opts, step*10+si)
				}
				if step%15 == 7 {
					for _, a := range tc.atoms {
						if sk := opts.SkipRelations; len(sk) > 0 && sk[0] == a.Relation {
							continue
						}
						checkSensitivityFn(t, sessions[step%len(sessions)], m, opts, a.Relation, step)
					}
				}
			}
			store.Trim()
			if got := store.Stats(); got.MemoEntries != 0 {
				t.Fatalf("memos survived a full trim at quiescence: %+v", got)
			}
		})
	}
}

// TestSharedDifferentialOverlap runs two different queries with a common
// subtree — a 3-atom path and its 2-atom prefix — through one store: the
// leaf node and its base intern once, everything else stays private, and
// both sessions must stay exact while the stream also carries updates for
// the relation only one of them references.
func TestSharedDifferentialOverlap(t *testing.T) {
	atoms3 := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	q3, err := query.New("path3", atoms3, nil)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := query.New("path2", atoms3[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	_, db, opts := buildCase(t, streamCase{name: "path", atoms: atoms3}, rng, 12, 4)
	m := newMirror(db)

	store := NewPlanStore()
	a, _ := openAdopted(t, q3, db, opts, store)
	b, st := openAdopted(t, q2, db, opts, store)
	if st.NodesShared == 0 || st.BasesShared == 0 {
		t.Fatalf("prefix query shared nothing: %+v", st)
	}
	if st.ResidueShared {
		t.Fatalf("different queries must not share a residue: %+v", st)
	}

	rels := []string{"R1", "R2", "R3"}
	for step := 0; step < 80; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		first, second := a, b
		if step%2 == 1 {
			first, second = b, a
		}
		if err := first.Apply([]Update{up}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := second.Apply([]Update{up}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkAgainstScratch(t, a, m, opts, step)
		// The 2-atom session is checked against a mirror restricted to the
		// relations it kept (R3 updates must be validated no-ops for it).
		m2 := &mirror{attrs: map[string][]string{}, rows: map[string][]relation.Tuple{}}
		for _, rel := range []string{"R1", "R2"} {
			m2.attrs[rel] = m.attrs[rel]
			m2.rows[rel] = m.rows[rel]
		}
		checkAgainstScratch(t, b, m2, opts, step)
	}
}

// TestSharedAdoptQuiescence pins the quiescence precondition: when one
// subscriber of a partially-shared store has applied an update the other
// has not, entries sit at different positions and Adopt must refuse; once
// the laggard catches up, Adopt succeeds again.
func TestSharedAdoptQuiescence(t *testing.T) {
	atoms3 := []query.Atom{
		{Relation: "R1", Vars: []string{"A", "B"}},
		{Relation: "R2", Vars: []string{"B", "C"}},
		{Relation: "R3", Vars: []string{"C", "D"}},
	}
	q3 := query.MustNew("path3", atoms3, nil)
	q2 := query.MustNew("path2", atoms3[:2], nil)
	rng := rand.New(rand.NewSource(5))
	_, db, opts := buildCase(t, streamCase{name: "path", atoms: atoms3}, rng, 8, 4)

	store := NewPlanStore()
	a, _ := openAdopted(t, q3, db, opts, store)
	b, _ := openAdopted(t, q2, db, opts, store)

	up := Update{Rel: "R1", Row: relation.Tuple{9, 9}, Insert: true}
	if err := b.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	mid, err := Open(q3, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Adopt(store); err == nil {
		t.Fatal("Adopt succeeded against a mid-round store")
	}
	if err := a.Apply([]Update{up}); err != nil {
		t.Fatal(err)
	}
	late, err := Open(q3, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Insert("R1", relation.Tuple{9, 9}); err != nil {
		t.Fatal(err) // catch the newcomer up to the stream before adopting
	}
	if _, err := late.Adopt(store); err != nil {
		t.Fatalf("Adopt at quiescence: %v", err)
	}
	if a.Count() != late.Count() {
		t.Fatalf("adopted newcomer count %d, incumbent %d", late.Count(), a.Count())
	}
}

// TestSharedReleaseAndRefcounts pins refcount release: dropping one of two
// identical subscribers leaves every entry live for the survivor (which
// must keep answering exactly), and dropping the last empties the store.
func TestSharedReleaseAndRefcounts(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(31))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	a, _ := openAdopted(t, q, db, opts, store)
	b, st := openAdopted(t, q, db, opts, store)
	if !st.FullShare() || !st.ResidueShared {
		t.Fatalf("identical query did not fully share: %+v", st)
	}

	rels := []string{"R1", "R2", "R3"}
	feedBoth := func(step int) {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for step := 0; step < 20; step++ {
		feedBoth(step)
	}
	before := store.Stats()
	if before.SharedNodes == 0 || before.SharedResidues != 1 {
		t.Fatalf("expected shared entries before release: %+v", before)
	}

	a.ReleaseShared()
	after := store.Stats()
	if after.Subscribers != 1 || after.SharedNodes != 0 || after.SharedResidues != 0 {
		t.Fatalf("release of one subscriber: %+v", after)
	}
	if after.Nodes != before.Nodes || after.Residues != before.Residues {
		t.Fatalf("entries vanished while still referenced: before %+v after %+v", before, after)
	}
	// The survivor keeps the canonical tables and stays exact as sole lead.
	for step := 0; step < 20; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		if err := b.Apply([]Update{up}); err != nil {
			t.Fatalf("survivor step %d: %v", step, err)
		}
		checkAgainstScratch(t, b, m, opts, 100+step)
	}
	b.ReleaseShared()
	if got := store.Stats(); got.Bases != 0 || got.Nodes != 0 || got.Residues != 0 || got.Subscribers != 0 {
		t.Fatalf("store not empty after last release: %+v", got)
	}
	if b.Shared() {
		t.Fatal("session still reports attached after release")
	}
}

// TestSharedRebuildDetaches pins the no-sharing fallback: an attached
// session that rebuilds (explicitly here; tombstone compaction and bulk
// batches route through the same path) silently detaches, keeps answering
// exactly on private state, and leaves its former co-subscriber intact.
func TestSharedRebuildDetaches(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(43))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	a, _ := openAdopted(t, q, db, opts, store)
	b, _ := openAdopted(t, q, db, opts, store)

	rels := []string{"R1", "R2", "R3"}
	for step := 0; step < 10; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if a.Shared() {
		t.Fatal("session still attached after rebuild")
	}
	if got := store.Stats(); got.Subscribers != 1 {
		t.Fatalf("store after rebuild detach: %+v", got)
	}
	for step := 0; step < 20; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{a, b} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("post-detach step %d: %v", step, err)
			}
		}
		checkAgainstScratch(t, a, m, opts, 200+step)
		checkAgainstScratch(t, b, m, opts, 300+step)
	}
}

// TestOpenPrunesUnreferencedRelations pins the subset clone: relations the
// query never references are not cloned, yet updates addressed to them
// validate arity and no-op, and truly unknown relations still error.
func TestOpenPrunesUnreferencedRelations(t *testing.T) {
	tc := streamCases()[4] // disconnected_with_skip: carries UNUSED(Z)
	rng := rand.New(rand.NewSource(3))
	q, db, opts := buildCase(t, tc, rng, 8, 4)
	s, err := Open(q, db, Options{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows("UNUSED") != nil {
		t.Fatal("unreferenced relation was cloned into the session")
	}
	before := s.Count()
	if err := s.Insert("UNUSED", relation.Tuple{1}); err != nil {
		t.Fatalf("insert into unreferenced relation: %v", err)
	}
	if s.Count() != before {
		t.Fatal("no-op update changed the count")
	}
	if err := s.Insert("UNUSED", relation.Tuple{1, 2}); err == nil {
		t.Fatal("arity mismatch on unreferenced relation not rejected")
	}
	if err := s.Insert("NOPE", relation.Tuple{1}); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// sameAnswers fails unless got reports the same Count, LS and per-relation
// sensitivities as want.
func sameAnswers(t *testing.T, got, want *Session, step int) {
	t.Helper()
	g, err := got.LS()
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	w, err := want.LS()
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if got.Count() != want.Count() || g.LS != w.LS || len(g.PerRelation) != len(w.PerRelation) {
		t.Fatalf("step %d: count %d LS %d, want count %d LS %d", step, got.Count(), g.LS, want.Count(), w.LS)
	}
	for rel, wtr := range w.PerRelation {
		if gtr := g.PerRelation[rel]; gtr == nil || gtr.Sensitivity != wtr.Sensitivity {
			t.Fatalf("step %d: δ(%s): %+v, want %d", step, rel, gtr, wtr.Sensitivity)
		}
	}
}

// TestSharedRowsAbsentDelete feeds three subscribers of one store a delete
// of a tuple no relation holds: the first applies it to the shared rows
// and records the rejection, the others replay it, so all three return the
// same error, advance past the position, and stay exact on the next one.
func TestSharedRowsAbsentDelete(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(7))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, st := openAdopted(t, q, db, opts, store)
		if i > 0 && st.RowsShared != 3 {
			t.Fatalf("session %d shared %d of 3 relations: %+v", i, st.RowsShared, st)
		}
		sessions = append(sessions, s)
	}
	if got := store.Stats(); got.Rows != 3 || got.SharedRows != 3 {
		t.Fatalf("store stats: %+v", got)
	}
	absent := Update{Rel: "R2", Row: relation.Tuple{99, 99}}
	var msgs []string
	for _, s := range sessions {
		err := s.Apply([]Update{absent})
		if err == nil {
			t.Fatal("delete of an absent tuple accepted")
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[1] != msgs[0] || msgs[2] != msgs[0] {
		t.Fatalf("subscribers disagree on the rejection: %q", msgs)
	}
	for _, s := range sessions {
		if s.pos != 1 {
			t.Fatalf("cursor %d after the rejected position, want 1", s.pos)
		}
	}
	up := Update{Rel: "R1", Row: relation.Tuple{1, 2}, Insert: true}
	m.apply(t, up)
	for i, s := range sessions {
		if err := s.Apply([]Update{up}); err != nil {
			t.Fatal(err)
		}
		checkAgainstScratch(t, s, m, opts, i)
		if s.pos != 2 {
			t.Fatalf("cursor %d after the next position, want 2", s.pos)
		}
	}
	if got := len(sessions[0].Rows("R1")); got != len(m.rows["R1"]) {
		t.Fatalf("shared R1 holds %d rows, want %d", got, len(m.rows["R1"]))
	}
}

// TestSharedRowsDetachPrivate detaches one of three subscribers each of
// the three ways a session leaves its store. The detached session must end
// up with private rows: the updates it applies afterwards (the bulk batch
// itself, for a bulk Apply) leave the survivors' Rows and Has unchanged,
// and the survivors keep answering exactly what a fresh Open does.
func TestSharedRowsDetachPrivate(t *testing.T) {
	applyEach := func(s *Session, ups []Update) error {
		for _, up := range ups {
			if err := s.Apply([]Update{up}); err != nil {
				return err
			}
		}
		return nil
	}
	// Each way detaches the session and then applies ups to it alone.
	detach := map[string]func(s *Session, ups []Update) error{
		"release": func(s *Session, ups []Update) error {
			s.ReleaseShared()
			if err := s.Rebuild(); err != nil {
				return err
			}
			return applyEach(s, ups)
		},
		"rebuild": func(s *Session, ups []Update) error {
			if err := s.Rebuild(); err != nil {
				return err
			}
			return applyEach(s, ups)
		},
		// len(ups) ≥ BulkThreshold: Apply detaches, then applies the batch.
		"bulk": (*Session).Apply,
	}
	for name, fn := range detach {
		t.Run(name, func(t *testing.T) {
			tc := streamCases()[2] // triangle_ghd
			rng := rand.New(rand.NewSource(17))
			q, db, opts := buildCase(t, tc, rng, 12, 4)
			m := newMirror(db)
			store := NewPlanStore()
			var sessions []*Session
			for i := 0; i < 3; i++ {
				s, err := Open(q, db, Options{Options: opts, BulkThreshold: 8})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Adopt(store); err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, s)
			}
			rels := []string{"T1", "T2", "T3"}
			for step := 0; step < 20; step++ {
				up := randomUpdate(rng, m, rels, 4)
				m.apply(t, up)
				for _, s := range sessions {
					if err := s.Apply([]Update{up}); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}

			gone, survivors := sessions[0], sessions[1:]
			before := make(map[string][]relation.Tuple)
			for _, rel := range rels {
				before[rel] = slices.Clone(survivors[0].Rows(rel))
			}
			// The detached session's own stream: inserts of fresh tuples and
			// deletes of every current T1 row.
			var private []Update
			for i := 0; i < 4; i++ {
				private = append(private, Update{Rel: "T2", Row: relation.Tuple{int64(50 + i), 1}, Insert: true})
			}
			for _, row := range m.rows["T1"] {
				private = append(private, Update{Rel: "T1", Row: row.Clone()})
			}
			if err := fn(gone, private); err != nil {
				t.Fatal(err)
			}
			if gone.Shared() {
				t.Fatal("session still attached after detaching")
			}
			if got := store.Stats(); got.Subscribers != 2 || got.SharedRows != 3 {
				t.Fatalf("store after detach: %+v", got)
			}
			for _, s := range survivors {
				for _, rel := range rels {
					if !slices.EqualFunc(s.Rows(rel), before[rel], relation.Tuple.Equal) {
						t.Fatalf("survivor %s rows changed by a detached session's updates", rel)
					}
				}
				if s.Has("T2", relation.Tuple{50, 1}) || !s.Has("T1", m.rows["T1"][0]) {
					t.Fatal("survivor Has sees a detached session's updates")
				}
			}
			if len(gone.Rows("T1")) != 0 || !gone.Has("T2", relation.Tuple{50, 1}) {
				t.Fatal("detached session lost its own updates")
			}

			// The survivors stay exact on their shared stream.
			for step := 0; step < 20; step++ {
				up := randomUpdate(rng, m, rels, 4)
				m.apply(t, up)
				for _, s := range survivors {
					if err := s.Apply([]Update{up}); err != nil {
						t.Fatalf("survivor step %d: %v", step, err)
					}
				}
			}
			fresh, err := Open(q, m.database(t), Options{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range survivors {
				sameAnswers(t, s, fresh, 0)
			}
		})
	}
}

// TestSharedFullFollower checks the propagation short-circuit on a
// multi-component query with a skipped relation and an unreferenced one:
// after every step of a mixed stream (inserts, deletes, no-op updates to
// the unreferenced relation) the fully-shared follower reports exactly the
// lead's Count and LS, and both match the from-scratch solver at the end.
func TestSharedFullFollower(t *testing.T) {
	tc := streamCases()[4] // disconnected_with_skip
	rng := rand.New(rand.NewSource(29))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	m := newMirror(db)
	store := NewPlanStore()
	lead, _ := openAdopted(t, q, db, opts, store)
	follower, st := openAdopted(t, q, db, opts, store)
	if !st.ResidueShared || st.RowsShared != 3 {
		t.Fatalf("follower not fully shared: %+v", st)
	}
	rels := []string{"D1", "D2", "D3", "UNUSED"}
	for step := 0; step < 120; step++ {
		up := randomUpdate(rng, m, rels, 4)
		m.apply(t, up)
		for _, s := range []*Session{lead, follower} {
			if err := s.Apply([]Update{up}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		sameAnswers(t, follower, lead, step)
	}
	checkAgainstScratch(t, follower, m, opts, 0)
}

// TestSharedFollowerAllocs pins the fully-shared follower's update path at
// zero allocations: with the lead already past a position, a follower's
// single-tuple Apply replays the row outcome, re-reads its component
// total, and bumps its cursor. The lead runs ahead first so only the
// follower's work is measured.
func TestSharedFollowerAllocs(t *testing.T) {
	const runs = 300
	spec := workload.QTri()
	db := workload.FacebookDataSized(40, 200, 50, 1)
	store := NewPlanStore()
	var sessions []*Session
	for i := 0; i < 3; i++ {
		s, st := openAdopted(t, spec.Query, db, spec.Options(), store)
		if i > 0 && !st.ResidueShared {
			t.Fatalf("subscriber %d not fully shared: %+v", i, st)
		}
		sessions = append(sessions, s)
	}
	lead, follower := sessions[0], sessions[1]
	ups := make([]Update, runs+1)
	for i := range ups {
		ups[i] = Update{Rel: []string{"R1", "R2", "R3"}[i/2%3], Row: relation.Tuple{1000, 1001}, Insert: i%2 == 0}
	}
	for _, up := range ups {
		if err := lead.Apply([]Update{up}); err != nil {
			t.Fatal(err)
		}
	}
	one := make([]Update, 1)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		one[0] = ups[next]
		next++
		if err := follower.Apply(one); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fully-shared follower: %.1f allocs per update, want 0", allocs)
	}
	sameAnswers(t, follower, lead, runs)
}

// TestSharedRowsDivergedStayPrivate pins the tier-0 check: a relation
// whose rows differ from the interned copy, even at equal length, is not
// spliced in, and the session keeps patching its own rows.
func TestSharedRowsDivergedStayPrivate(t *testing.T) {
	tc := streamCases()[0] // path
	rng := rand.New(rand.NewSource(41))
	q, db, opts := buildCase(t, tc, rng, 12, 4)
	other := db.Clone()
	r1 := other.Relation("R1")
	r1.Rows[0] = relation.Tuple{77, 77}
	store := NewPlanStore()
	a, _ := openAdopted(t, q, db, opts, store)
	b, st := openAdopted(t, q, other, opts, store)
	if st.RowsShared != 2 || st.RowsDonated != 0 {
		t.Fatalf("diverged R1 spliced in: %+v", st)
	}
	if !b.Has("R1", relation.Tuple{77, 77}) || a.Has("R1", relation.Tuple{77, 77}) {
		t.Fatal("sessions with diverged R1 read the same rows")
	}
}

// stepEach is per-update stepping, the discipline StepGroup replaces: every
// session applies each update in turn, and stops at its first error.
func stepEach(g []*Session, ups []Update, errs []error) {
	for _, up := range ups {
		for i, s := range g {
			if errs[i] == nil {
				errs[i] = s.Apply([]Update{up})
			}
		}
	}
}

// partialVariant is tc's query with one more selection on its last atom:
// the atom's subtree and its ancestors fingerprint differently, everything
// else interns with the original plan, and the residue never does.
func partialVariant(t *testing.T, tc streamCase) *query.Query {
	t.Helper()
	last := tc.atoms[len(tc.atoms)-1]
	sels := make(map[string][]query.Predicate)
	for rel, ps := range tc.sels {
		sels[rel] = ps
	}
	sels[last.Relation] = append(slices.Clone(sels[last.Relation]),
		query.Predicate{Var: last.Vars[0], Op: query.Le, Value: 1})
	q, err := query.New(tc.name+"_partial", tc.atoms, sels)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSharedRidersDifferential drives rounds of updates through StepGroup
// over four identical subscribers (one steps, three ride) and a partial
// sharer placed between them, and the same rounds through per-update
// stepping over a second, identically built store. After every round each
// session must match its per-update twin, a private session, and the
// from-scratch solver. The last round carries a delete of an absent tuple
// in its middle: every session must fail with the per-update error at the
// per-update position, having absorbed exactly the updates before it.
func TestSharedRidersDifferential(t *testing.T) {
	for _, tc := range streamCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(53))
			q, db, opts := buildCase(t, tc, rng, 12, 4)
			pq := partialVariant(t, tc)
			m := newMirror(db)
			const partial = 2
			build := func() []*Session {
				store := NewPlanStore()
				var g []*Session
				for i := 0; i < 5; i++ {
					qi := q
					if i == partial {
						qi = pq
					}
					s, st := openAdopted(t, qi, db, opts, store)
					switch {
					case i == partial && (st.ResidueShared || st.BasesShared == 0):
						t.Fatalf("partial sharer: %+v", st)
					case i != partial && i > 0 && !st.ResidueShared:
						t.Fatalf("subscriber %d not fully shared: %+v", i, st)
					case i != partial && !s.canRide:
						t.Fatalf("subscriber %d cannot ride", i)
					}
					g = append(g, s)
				}
				return g
			}
			rounds, perUpdate := build(), build()
			private, err := Open(q, db, Options{Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			rels := tc.rels
			if rels == nil {
				for _, a := range tc.atoms {
					rels = append(rels, a.Relation)
				}
			}
			// rotate returns g starting at seat r, so every identical
			// subscriber takes a turn as the stepper.
			rotate := func(g []*Session, r int) []*Session {
				r %= len(g)
				return append(slices.Clone(g[r:]), g[:r]...)
			}
			check := func(round int) {
				t.Helper()
				for i := range rounds {
					if rounds[i].pos != perUpdate[i].pos || rounds[i].Updates() != perUpdate[i].Updates() {
						t.Fatalf("round %d seat %d: pos %d updates %d, per-update pos %d updates %d", round, i,
							rounds[i].pos, rounds[i].Updates(), perUpdate[i].pos, perUpdate[i].Updates())
					}
					sameAnswers(t, rounds[i], perUpdate[i], round)
					checkAgainstScratch(t, rounds[i], m, opts, round)
					if i != partial {
						sameAnswers(t, rounds[i], private, round)
					}
				}
				a, _ := rounds[0].LS()
				b, _ := rounds[len(rounds)-1].LS()
				if a != b {
					t.Fatalf("round %d: subscribers at one position got distinct LS results", round)
				}
			}
			for round := 0; round < 30; round++ {
				ups := make([]Update, 1+rng.Intn(12))
				for k := range ups {
					ups[k] = randomUpdate(rng, m, rels, 4)
					m.apply(t, ups[k])
				}
				errs, want := make([]error, 5), make([]error, 5)
				StepGroup(rotate(rounds, round), ups, errs)
				stepEach(rotate(perUpdate, round), ups, want)
				for i := range errs {
					if errs[i] != nil || want[i] != nil {
						t.Fatalf("round %d: StepGroup %v, per-update %v", round, errs, want)
					}
				}
				if err := private.Apply(ups); err != nil {
					t.Fatal(err)
				}
				check(round)
			}

			// The failing round: valid updates around a delete of a tuple no
			// relation holds (values outside the generated domain).
			var ups []Update
			for k := 0; k < 3; k++ {
				up := randomUpdate(rng, m, rels, 4)
				m.apply(t, up)
				ups = append(ups, up)
			}
			absent := Update{Rel: rels[0], Row: make(relation.Tuple, len(m.attrs[rels[0]]))}
			for i := range absent.Row {
				absent.Row[i] = 99
			}
			ups = append(ups, absent, randomUpdate(rng, m, rels, 4))
			errs, want := make([]error, 5), make([]error, 5)
			StepGroup(rounds, ups, errs)
			stepEach(perUpdate, ups, want)
			for i := range errs {
				if errs[i] == nil || want[i] == nil || errs[i].Error() != want[i].Error() {
					t.Fatalf("seat %d: StepGroup error %v, per-update %v", i, errs[i], want[i])
				}
			}
			if err := private.Apply(ups[:3]); err != nil {
				t.Fatal(err)
			}
			check(30)
		})
	}
}

// TestSharedRiderCatchUpAllocs pins a rider's end-of-round catch-up over a
// 64-update round at zero allocations. The stepper runs every round ahead
// first, so only the rider's work is measured.
func TestSharedRiderCatchUpAllocs(t *testing.T) {
	const runs, round = 20, 64
	spec := workload.QTri()
	db := workload.FacebookDataSized(40, 200, 50, 1)
	store := NewPlanStore()
	var g []*Session
	for i := 0; i < 3; i++ {
		s, _ := openAdopted(t, spec.Query, db, spec.Options(), store)
		if !s.canRide {
			t.Fatalf("subscriber %d cannot ride", i)
		}
		g = append(g, s)
	}
	stepper, rider := g[0], g[1]
	for i := 0; i < (runs+1)*round; i++ {
		up := Update{Rel: []string{"R1", "R2", "R3"}[i/2%3], Row: relation.Tuple{1000, 1001}, Insert: i%2 == 0}
		if err := stepper.Apply([]Update{up}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		rider.ride(rider.pos + round)
	})
	if allocs != 0 {
		t.Fatalf("rider catch-up: %.1f allocs per %d-update round, want 0", allocs, round)
	}
	if rider.pos != stepper.pos || rider.Updates() != stepper.Updates() {
		t.Fatalf("rider at pos %d with %d updates, stepper at %d with %d", rider.pos, rider.Updates(), stepper.pos, stepper.Updates())
	}
	sameAnswers(t, rider, stepper, runs)
}

// TestSharedLSMemo pins the per-residue LS memo: once one holder has
// assembled LS at a position, every other holder at that position gets the
// same *Result without allocating; a private session never memoizes.
func TestSharedLSMemo(t *testing.T) {
	spec := workload.QTri()
	db := workload.FacebookDataSized(40, 200, 50, 1)
	store := NewPlanStore()
	a, _ := openAdopted(t, spec.Query, db, spec.Options(), store)
	b, _ := openAdopted(t, spec.Query, db, spec.Options(), store)
	errs := make([]error, 2)
	StepGroup([]*Session{a, b}, []Update{{Rel: "R1", Row: relation.Tuple{1000, 1001}, Insert: true}}, errs)
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	want, err := a.LS()
	if err != nil {
		t.Fatal(err)
	}
	var got *core.Result
	allocs := testing.AllocsPerRun(100, func() {
		got, _ = b.LS()
	})
	if allocs != 0 || got != want {
		t.Fatalf("memo hit: %.1f allocs, same result %v", allocs, got == want)
	}
	private, err := Open(spec.Query, db, Options{Options: spec.Options()})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := private.LS()
	p2, _ := private.LS()
	if p1 == p2 {
		t.Fatal("a private session returned a memoized result")
	}
}

// TestSessionUpdateAllocs pins the allocation budget of one single-tuple
// q4 update plus LS() on a private session (the path every stepper takes),
// on the Table-1 fixture of BenchmarkSessionUpdate.
func TestSessionUpdateAllocs(t *testing.T) {
	const budget = 98
	spec := workload.QTri()
	db := workload.FacebookDataSized(120, 1200, 250, 20200409)
	s, err := Open(spec.Query, db, Options{Options: spec.Options()})
	if err != nil {
		t.Fatal(err)
	}
	rel := spec.PrimaryPrivate
	row := db.Relation(rel).Rows[0].Clone()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if i%2 == 0 {
			err = s.Insert(rel, row)
		} else {
			err = s.Delete(rel, row)
		}
		i++
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.LS(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("q4 update + LS: %.0f allocs", allocs)
	if allocs > budget {
		t.Fatalf("q4 update + LS: %.0f allocs, budget %d", allocs, budget)
	}
}

// TestSharedRidersFailLikePerUpdate covers the failures no shared rows
// record: a stepper rejecting an update mid-round for its shape (arity,
// unknown relation), and a store poisoned before the round. StepGroup and
// per-update stepping, each over its own store, must agree on every
// session's error, cursor and update count, and on the session metrics:
// riders add the updates they absorb to tsens_session_updates_total but
// leave tsens_session_update_seconds without a sample.
func TestSharedRidersFailLikePerUpdate(t *testing.T) {
	tc := streamCases()[0] // path
	bad := map[string]Update{
		"arity":   {Rel: "R2", Row: relation.Tuple{1}, Insert: true},
		"unknown": {Rel: "NOPE", Row: relation.Tuple{1, 2}, Insert: true},
		"poison":  {},
	}
	for name, fail := range bad {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(61))
			q, db, opts := buildCase(t, tc, rng, 12, 4)
			m := newMirror(db)
			build := func() ([]*Session, *PlanStore, *obs.Registry) {
				reg := obs.NewRegistry()
				store := NewPlanStore()
				var g []*Session
				for i := 0; i < 4; i++ {
					s, err := Open(q, db, Options{Options: opts, Metrics: reg})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Adopt(store); err != nil {
						t.Fatal(err)
					}
					g = append(g, s)
				}
				return g, store, reg
			}
			rounds, rstore, rreg := build()
			perUpdate, pstore, preg := build()
			var ups []Update
			for k := 0; k < 6; k++ {
				up := randomUpdate(rng, m, []string{"R1", "R2", "R3"}, 4)
				m.apply(t, up)
				ups = append(ups, up)
			}
			errs, want := make([]error, 4), make([]error, 4)
			StepGroup(rounds, ups, errs)
			stepEach(perUpdate, ups, want)
			if name == "poison" {
				rstore.fail = errors.New("injected")
				pstore.fail = rstore.fail
			} else {
				ups = []Update{ups[0], ups[1], fail, ups[2]}
			}
			errs, want = make([]error, 4), make([]error, 4)
			StepGroup(rounds, ups, errs)
			stepEach(perUpdate, ups, want)
			for i := range rounds {
				if errs[i] == nil || want[i] == nil || errs[i].Error() != want[i].Error() {
					t.Fatalf("seat %d: StepGroup error %v, per-update %v", i, errs[i], want[i])
				}
				if rounds[i].pos != perUpdate[i].pos || rounds[i].Updates() != perUpdate[i].Updates() {
					t.Fatalf("seat %d: pos %d updates %d, per-update pos %d updates %d", i,
						rounds[i].pos, rounds[i].Updates(), perUpdate[i].pos, perUpdate[i].Updates())
				}
				sameAnswers(t, rounds[i], perUpdate[i], i)
			}
			total := func(reg *obs.Registry) int64 {
				return reg.Counter("tsens_session_updates_total", "").Value()
			}
			if got, want := total(rreg), total(preg); got != want {
				t.Fatalf("tsens_session_updates_total: %d with riders, %d per update", got, want)
			}
			samples := rreg.Histogram("tsens_session_update_seconds", "", nil).Count()
			if perStep := preg.Histogram("tsens_session_update_seconds", "", nil).Count(); samples >= perStep {
				t.Fatalf("riders recorded update samples: %d, per-update %d", samples, perStep)
			}
		})
	}
}
