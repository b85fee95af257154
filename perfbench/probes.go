package main

// Probes of a traced run: after the measured phase, direct calls into the
// layers the workload's own requests reach only through other layers
// (Server.LS and Release behind the HTTP API, mechanism.Release behind
// Server.Release, incremental.Session and core.LocalSensitivity behind
// Register and the drain loop). They run on the run's own fixture and
// update stream, with spans and allocation counts around each call.

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tsens/internal/core"
	"tsens/internal/incremental"
	"tsens/internal/mechanism"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/workload"
)

const (
	serveProbeCalls         = 200 // Server.LS calls; a quarter as many releases
	coreProbeRounds         = 2   // rounds over the seven queries
	incrementalProbeUpdates = 400 // stream prefix replayed through sessions
	// sharedProbeCopies is how many sessions of each query the shared-writes
	// probe adopts into one PlanStore, so followers replay the leader's
	// memoized deltas as they do in the server.
	sharedProbeCopies = 2
)

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// serveProbe times Server.LS on every query and, on queries registered for
// releases, Server.Release and mechanism.Release on the view's sensitivity
// vector. Every fourth call it first appends one update of more, so reads
// assemble cuts while the shards drain, as under the workload's load. The
// updates are stream[pos:], which the load left unused.
func (b *bench) serveProbe(srv *serve.Server, queries []served, acked *acks, stream []relation.Update, pos int) {
	rng := rand.New(rand.NewSource(b.opts.seed))
	for i := 0; i < serveProbeCalls; i++ {
		q := queries[i%len(queries)]
		if i%4 == 0 && pos < len(stream) {
			id := b.tr.newID()
			t := time.Now()
			lsn, _, err := srv.Append(stream[pos : pos+1])
			b.tr.add(id, "serve.append", t, 0)
			b.rec.check("probe append", err)
			if err == nil {
				acked.add(lsn, pos, 1)
			}
			pos++
		}
		t := time.Now()
		_, _, err := srv.LS(q.id)
		b.tr.add(b.tr.newID(), "serve.ls", t, 0)
		b.rec.check("probe LS "+q.id, err)
		if !q.private || i%4 != 0 {
			continue
		}
		id := b.tr.newID()
		t = time.Now()
		_, err = srv.Release(q.id, rng)
		b.tr.add(id, "serve.release", t, 0)
		b.rec.check("probe release "+q.id, err)
		v, err := srv.View(q.id)
		if err != nil {
			b.rec.check("probe view "+q.id, err)
			continue
		}
		sens := append([]int64(nil), v.Sens...)
		t = time.Now()
		_, err = mechanism.Release(sens, mechanism.TSensDPConfig{Epsilon: 1, Bound: q.spec.SensBound}, rng)
		b.tr.add(b.tr.newID(), "mechanism.release", t, 0)
		b.rec.check("probe mechanism "+q.id, err)
	}
}

// coreProbe solves the seven paper queries from scratch with default
// options and records their allocations per solve.
func (b *bench) coreProbe() error {
	tp, fb := tpch(), facebook()
	allocs := make(map[string]uint64)
	for r := 0; r < coreProbeRounds; r++ {
		for _, s := range workload.All() {
			db := fb
			if isTPCH(s) {
				db = tp
			}
			m0 := mallocs()
			t := time.Now()
			_, err := core.LocalSensitivity(s.Query, db, s.Options())
			b.tr.add(b.tr.newID(), "core.solve."+s.Name, t, 0)
			allocs[s.Name] += mallocs() - m0
			if err != nil {
				return fmt.Errorf("core probe %s: %w", s.Name, err)
			}
		}
	}
	for name, n := range allocs {
		b.layers["core.allocs_per_solve."+name] = metric{float64(n) / coreProbeRounds, "count"}
	}
	return nil
}

// incrementalProbe replays a prefix of the workload's update stream through
// standalone sessions of the four Facebook queries, one Insert or Delete
// and one LS per update and session. With shared set the sessions are
// adopted into one PlanStore, as the shared-writes server does.
func (b *bench) incrementalProbe(fixture *relation.Database, stream []relation.Update, shared bool) error {
	type session struct {
		s    *incremental.Session
		name string
	}
	var (
		sessions []session
		store    *incremental.PlanStore
	)
	copies := 1
	if shared {
		copies, store = sharedProbeCopies, incremental.NewPlanStore()
	}
	for c := 0; c < copies; c++ {
		for _, sp := range workload.Facebook() {
			s, err := incremental.Open(sp.Query, fixture, incremental.Options{Options: sp.Options()})
			if err != nil {
				return fmt.Errorf("incremental probe %s: %w", sp.Name, err)
			}
			if store != nil {
				if _, err := s.Adopt(store); err != nil {
					return fmt.Errorf("incremental probe %s: adopt: %w", sp.Name, err)
				}
				defer s.ReleaseShared()
			}
			sessions = append(sessions, session{s, sp.Name})
		}
	}
	allocs := make(map[string]uint64)
	updates := make(map[string]int)
	for _, up := range stream[:min(len(stream), incrementalProbeUpdates)] {
		for _, ss := range sessions {
			id := b.tr.newID()
			m0 := mallocs()
			t := time.Now()
			var err error
			if up.Insert {
				err = ss.s.Insert(up.Rel, up.Row)
			} else {
				err = ss.s.Delete(up.Rel, up.Row)
			}
			b.tr.add(id, "incremental.update."+ss.name, t, 0)
			if err == nil {
				t = time.Now()
				_, err = ss.s.LS()
				b.tr.add(id, "incremental.ls."+ss.name, t, 0)
			}
			allocs[ss.name] += mallocs() - m0
			updates[ss.name]++
			if err != nil {
				return fmt.Errorf("incremental probe %s: %w", ss.name, err)
			}
		}
	}
	for name, n := range allocs {
		b.layers["incremental.allocs_per_update."+name] = metric{float64(n) / float64(updates[name]), "count"}
	}
	return nil
}

// finishLayers runs the core and incremental probes of a traced run and
// assembles every per-layer metric; untraced runs return at once. lates
// are the open-loop generator's start delays, stream the workload's update
// stream (nil: derive one from fixture).
func (b *bench) finishLayers(lates []float64, fixture *relation.Database, stream []relation.Update, shared bool) error {
	if b.tr == nil {
		return nil
	}
	if err := b.coreProbe(); err != nil {
		return err
	}
	if stream == nil {
		stream = workload.UpdateStream(fixture, incrementalProbeUpdates, deleteFrac, b.opts.seed)
	}
	if err := b.incrementalProbe(fixture, stream, shared); err != nil {
		return err
	}
	spans := b.tr.snapshot()
	ix := indexSpans(spans)
	b.serverLayers(ix, lates)
	b.layers["trace.spans"] = metric{float64(len(spans)), "count"}
	for _, s := range workload.Facebook() {
		b.layers["incremental.propagate_us_p50."+s.Name] = metric{quantile(ix.durations("incremental.update."+s.Name), 0.5) * 1e6, "us"}
		b.layers["incremental.ls_us_p50."+s.Name] = metric{quantile(ix.durations("incremental.ls."+s.Name), 0.5) * 1e6, "us"}
	}
	for _, s := range workload.All() {
		b.layers["core.solve_ms."+s.Name] = metric{quantile(ix.durations("core.solve."+s.Name), 0.5) * 1e3, "ms"}
	}
	return nil
}
