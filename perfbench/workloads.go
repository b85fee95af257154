package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"tsens/internal/core"
	"tsens/internal/mechanism"
	"tsens/internal/obs"
	"tsens/internal/relation"
	"tsens/internal/serve"
	"tsens/internal/serve/wal"
	"tsens/internal/workload"
)

// Fixtures. The Facebook fixture is the paper's Table-1 ego network at the
// size the repository's own benchmarks use; TPC-H scale 0.001 keeps q3 near
// 0.1 s (at 0.01 it takes seconds, too long for a round). Both are built
// from one fixed seed, the one the repository's benchmarks use, so every
// run measures the same data: join sizes, and with them solve times and
// heap, differ by 10-20% between generator seeds. --seed drives what a run
// does to the data: update streams, request order and release noise.
const (
	fbNodes, fbEdges, fbCircles = 120, 1200, 250
	tpchScale                   = 0.001
	fixtureSeed                 = 20200409
	deleteFrac                  = 0.4 // share of deletes in every update stream
)

// Workload rates and shapes.
const (
	// sharedQueries registrations cycle through the four Facebook queries:
	// 32 identical copies of each hash-cons into one plan per shard.
	sharedQueries = 128
	sharedBatch   = 64
	// sharedBacklog bounds the appended batches not yet visible.
	sharedBacklog = 8
	// sharedDeleteFrac balances inserts and deletes, so the database keeps
	// its size and a run measures capacity at one size however far it gets:
	// with 40% deletes it grows by a fifth of the updates applied, and the
	// capacity falls by a third over ten seconds.
	sharedDeleteFrac = 0.5
	// requestRate is the open-loop rate of the reads-releases requests, in
	// cycles of requestCycle: seven GET .../ls, two POST .../release and one
	// POST /updates?wait=epoch, so 350 reads, 100 releases and 50 updates a
	// second. See readsReleases for how they were chosen.
	requestRate  = 500
	requestCycle = 10
	// Setup repetitions; setup_s is their median. One to one and a half
	// seconds of building per run, except shared-writes, whose builds take
	// 1.6 s each. The short builds vary by a fifth or more from one to the
	// next (a WAL seed checkpoint's fsync, the host), so they repeat most.
	servedSetupReps, sharedSetupReps, scratchSetupReps = 15, 3, 9
	// releaseDrift is the count drift past which a release is fresh
	// (spends ε and journals it) instead of replaying the cached answer;
	// small, so the update stream forces some fresh releases.
	releaseDrift = 0.01
)

func facebook() *relation.Database {
	return workload.FacebookDataSized(fbNodes, fbEdges, fbCircles, fixtureSeed)
}

func tpch() *relation.Database { return workload.TPCHData(tpchScale, fixtureSeed) }

// streamFor derives the workload's update stream from the fixture, sized to
// last rate updates a second through the warm-up and the measured phase.
func (b *bench) streamFor(db *relation.Database, rate, deletes float64) []relation.Update {
	n := int(rate*(b.opts.seconds+b.warmup().Seconds())*1.1) + 100
	return workload.UpdateStream(db, n, deletes, b.opts.seed)
}

// system is a server with its registered queries and, optionally, its HTTP
// API on a loopback listener.
type system struct {
	srv     *serve.Server
	reg     *obs.Registry
	dir     string // WAL directory; empty in memory
	queries []served
	web     *httptest.Server
	client  *http.Client
}

// facebookQueries returns n registrations cycling through the four
// Facebook queries. With private set they accept TSensDP releases on the
// primary private relation.
func facebookQueries(n int, private bool) ([]serve.QueryConfig, []served) {
	specs := workload.Facebook()
	var cfgs []serve.QueryConfig
	var qs []served
	for i := 0; i < n; i++ {
		s := specs[i%len(specs)]
		id := s.Name
		if n > len(specs) {
			id = fmt.Sprintf("%s-%d", s.Name, i)
		}
		cfg := serve.QueryConfig{ID: id, Query: s.Query, Options: s.Options()}
		if private {
			cfg.Private = s.PrimaryPrivate
			cfg.Release = mechanism.TSensDPConfig{Epsilon: 1, Bound: s.SensBound}
			cfg.Drift = releaseDrift
		}
		cfgs = append(cfgs, cfg)
		qs = append(qs, served{id: id, spec: s, private: private})
	}
	return cfgs, qs
}

// openSystem starts a server with default options over db, durable in a
// fresh WAL directory when asked, and registers the queries.
func (b *bench) openSystem(db *relation.Database, durable, web bool, cfgs []serve.QueryConfig, qs []served) (*system, error) {
	sys := &system{reg: obs.NewRegistry(), queries: qs}
	opts := serve.Options{Metrics: sys.reg}
	if durable {
		dir, err := b.scratchDir("wal")
		if err != nil {
			return nil, err
		}
		sys.dir, opts.WALDir = dir, dir
		if b.tr != nil {
			opts.WALFS = tracedFS{FS: wal.OSFS{}, tr: b.tr}
		}
	}
	srv, err := serve.New(db, opts)
	if err != nil {
		return nil, err
	}
	sys.srv = srv
	for _, cfg := range cfgs {
		start := time.Now()
		if _, _, err := srv.Register(cfg); err != nil {
			sys.close()
			return nil, fmt.Errorf("register %s: %w", cfg.ID, err)
		}
		b.tr.add(b.tr.newID(), "serve.register", start, 0)
	}
	if web {
		var h http.Handler = serve.NewAPI(srv, nil, b.opts.seed)
		if b.tr != nil {
			h = tracedHandler{next: h, tr: b.tr}
		}
		sys.web = httptest.NewServer(h)
		sys.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: b.workers,
			MaxConnsPerHost:     b.workers,
		}}
	}
	return sys, nil
}

func (s *system) close() {
	if s.web != nil {
		s.client.CloseIdleConnections()
		s.web.Close()
	}
	s.srv.Close()
}

// do sends one request and returns the body of a 2xx response. A traced
// request carries a span ID, and its round trip is recorded as a client
// span.
func (s *system) do(b *bench, method, path string, body []byte, traced bool) ([]byte, error) {
	req, err := http.NewRequest(method, s.web.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id uint64
	if traced {
		id = b.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if id != 0 {
		b.tr.add(id, "client."+requestKind(method, req.URL.Path), start, 0)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// settle waits until every appended update is visible.
func (s *system) settle() error { return s.srv.WaitApplied(s.srv.Stats().Appended) }

// finishServed runs the checks shared by the serving workloads, and in a
// traced run the serve probe first: views against the reference replay,
// then (durable servers) the reopen from the WAL directory. fixture is the
// starting database and stream the workload's update stream, of which the
// load used the first pos updates; the probe appends some of the rest.
func (b *bench) finishServed(sys *system, fixture *relation.Database, acked *acks, stream []relation.Update, pos int) error {
	if b.tr != nil {
		b.serveProbe(sys.srv, sys.queries, acked, stream, pos)
	}
	if err := sys.settle(); err != nil {
		return err
	}
	b.tr.setOn(false)
	b.checkViews(sys.srv, sys.queries, acked.replay(fixture, stream))
	if sys.dir != "" {
		b.checkReopen(sys.srv, sys.dir, sys.queries)
	}
	sys.srv.Close()
	b.tr.setOn(true)
	return nil
}

// updateBody renders one update as a POST /updates body.
func updateBody(up relation.Update) []byte {
	row := make([]string, len(up.Row))
	for i, v := range up.Row {
		row[i] = strconv.FormatInt(v, 10)
	}
	op := "-"
	if up.Insert {
		op = "+"
	}
	body, _ := json.Marshal(map[string]any{"updates": []map[string]any{{"op": op, "rel": up.Rel, "row": row}}})
	return body
}

// shared-writes: write capacity where session maintenance dominates. An
// in-memory server holds sharedQueries registrations cycling through the
// four Facebook queries, so identical plans hash-cons in
// incremental.PlanStore and one patch per shared node fans out to every
// subscriber. One client appends batches of sharedBatch with Server.Append,
// closed loop with at most sharedBacklog batches not yet visible; each
// batch is timed from its Append until it is visible. It bypasses HTTP and
// the WAL, and its setup_s is dominated by the from-scratch registrations.
func sharedWrites(b *bench) error {
	b.primary = []string{"batch"}
	// The reference fixture and the stream are the benchmark's own data:
	// built first, so the live heap can leave them out. The stream is sized
	// well above the capacity of a 2-core machine; a run that uses it up
	// ends its measured phase early and says so in its context.
	fixture := facebook()
	stream := b.streamFor(fixture, 6000, sharedDeleteFrac)
	b.heapBaseMB = liveHeapMB()
	var sys *system
	err := b.timeSetup(sharedSetupReps, func() (func(), error) {
		cfgs, qs := facebookQueries(sharedQueries, false)
		var err error
		sys, err = b.openSystem(facebook(), false, false, cfgs, qs)
		if err != nil {
			return nil, err
		}
		return sys.close, nil
	})
	if err != nil {
		return err
	}
	defer sys.close()
	b.recordServed(false, map[string]any{"queries": sharedQueries, "batch": sharedBatch, "backlog_batches": sharedBacklog})

	var (
		acked acks
		pos   int
	)
	type pending struct {
		to     int64
		start  time.Time
		traced bool
		id     uint64
		n      int
	}
	load := func(d time.Duration) (float64, time.Duration, error) {
		start := time.Now()
		// The channel is the backlog bound: a full channel blocks the client
		// until the oldest pending batch is visible.
		queue := make(chan pending, sharedBacklog)
		var (
			visible int
			werr    error
		)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for p := range queue {
				ws := time.Now()
				err := sys.srv.WaitApplied(p.to)
				if p.traced {
					b.tr.add(p.id, "serve.wait", ws, 0)
				}
				b.rec.done("batch", p.start, p.traced, err)
				if err != nil && werr == nil {
					werr = err
				}
				if err == nil {
					visible += p.n
				}
			}
		}()
		for time.Since(start) < d {
			if pos+sharedBatch > len(stream) {
				b.context["stream_exhausted"] = true
				break
			}
			batch := stream[pos : pos+sharedBatch]
			traced := b.tr.active()
			id := b.tr.newID()
			t := time.Now()
			from, to, err := sys.srv.Append(batch)
			b.tr.add(id, "serve.append", t, 0)
			if err != nil {
				b.rec.done("batch", t, traced, err)
				break
			}
			acked.add(from, pos, len(batch))
			pos += sharedBatch
			queue <- pending{to: to, start: t, traced: traced, id: id, n: len(batch)}
		}
		close(queue)
		<-done
		return float64(visible), time.Since(start), werr
	}
	if err := b.measure(sys.reg, load); err != nil {
		return err
	}
	if err := b.finishServed(sys, fixture, &acked, stream, pos); err != nil {
		return err
	}
	return b.finishLayers(nil, fixture, stream, true)
}

// reads-releases: the serve and WAL layers from the read side, so a
// write-side gain that costs readers shows. A durable server (fsync before
// every acknowledgment, default checkpoint cadence) with the four Facebook
// queries registered for TSensDP releases on R2 answers one open loop of
// requests over the two client connections, each timed from its due time
// (see openLoop): GET /queries/{id}/ls, POST /queries/{id}/release and
// POST /updates?wait=epoch with one update of workload.UpdateStream. The
// updates keep the shards publishing version rings, so reads assemble cuts
// while writes continue; their count drift forces some fresh releases,
// which journal their ε spend through the WAL; and they take the HTTP
// ingress, WAL append and fsync path of a client write.
//
// The rates come from a measurement, not a source: no trace of real read
// and release traffic exists for this server. With both connections kept
// busy (closed loop), the same mix ran at 10,000-12,000 requests a second
// on a 2-vCPU VM, so requestRate is about a twentieth of capacity and the
// latencies are service times, not queueing. The load cannot be much
// higher in an open loop: at a quarter of capacity each worker's period
// (0.7 ms) would be no longer than its timer overshoot (about 0.6 ms), and
// the generator's own delay would be what is measured; at requestRate it
// is 4 ms. The update share gives 50 updates a second, enough that every
// measured phase of 25 s or more crosses one checkpoint at the default
// cadence of 1,024 entries. The 7:2 read:release split is a choice, not a
// measurement. Over loopback a read and a release take about as long
// (p50 0.20 and 0.22 ms, p90 0.26 and 0.29 ms), so the pooled p50_ms and
// p90_ms fall between the two kinds' own quantiles, nearer the reads'.
// Updates are not pooled. Each kind's quantiles are in the context line.
func readsReleases(b *bench) error {
	b.primary = []string{"read", "release"}
	fixture := facebook()
	stream := b.streamFor(fixture, requestRate/requestCycle, deleteFrac)
	bodies := make([][]byte, len(stream))
	for i, up := range stream {
		bodies[i] = updateBody(up)
	}
	b.heapBaseMB = liveHeapMB()
	var sys *system
	err := b.timeSetup(servedSetupReps, func() (func(), error) {
		cfgs, qs := facebookQueries(4, true)
		var err error
		sys, err = b.openSystem(facebook(), true, true, cfgs, qs)
		if err != nil {
			return nil, err
		}
		return sys.close, nil
	})
	if err != nil {
		return err
	}
	defer sys.close()
	b.recordServed(true, map[string]any{
		"read_rate_per_s":    requestRate * 7 / requestCycle,
		"release_rate_per_s": requestRate * 2 / requestCycle,
		"update_rate_per_s":  requestRate / requestCycle,
		"release_drift":      releaseDrift,
	})

	var (
		acked acks
		pos   atomic.Int64
		lates []float64
	)
	update := func(traced bool) error {
		i := int(pos.Add(1) - 1)
		if i >= len(stream) {
			return fmt.Errorf("update stream exhausted")
		}
		data, err := sys.do(b, http.MethodPost, "/updates?wait=epoch", bodies[i], traced)
		if err != nil {
			return err
		}
		var resp struct {
			From     int64 `json:"from"`
			Accepted int   `json:"accepted"`
		}
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.Accepted != 1 {
			return fmt.Errorf("accepted %d updates, sent 1", resp.Accepted)
		}
		acked.add(resp.From, i, 1)
		return nil
	}
	load := func(d time.Duration) (float64, time.Duration, error) {
		start := time.Now()
		var done atomic.Int64
		lates = b.openLoop(requestRate, d, func(k int64, from time.Time, traced bool) {
			// The query rotates with every request and shifts by one each
			// cycle, so every kind reaches every query.
			q := sys.queries[(k+k/requestCycle)%int64(len(sys.queries))]
			kind, method, path := "read", http.MethodGet, "/queries/"+q.id+"/ls"
			switch k % requestCycle {
			case 9:
				b.rec.done("update", from, traced, update(traced))
				return
			case 3, 7:
				kind, method, path = "release", http.MethodPost, "/queries/"+q.id+"/release"
			}
			data, err := sys.do(b, method, path, nil, traced)
			if err == nil {
				var resp struct {
					ID    string   `json:"id"`
					Count *int64   `json:"count"`
					LS    *int64   `json:"ls"`
					Noisy *float64 `json:"noisy"`
				}
				if err = json.Unmarshal(data, &resp); err == nil && (resp.ID != q.id ||
					kind == "read" && (resp.Count == nil || resp.LS == nil) ||
					kind == "release" && resp.Noisy == nil) {
					err = fmt.Errorf("%s answer %s for %s", kind, data, q.id)
				}
			}
			if err == nil {
				done.Add(1)
			}
			b.rec.done(kind, from, traced, err)
		})
		return float64(done.Load()), time.Since(start), nil
	}
	if err := b.measure(sys.reg, load); err != nil {
		return err
	}
	if err := b.finishServed(sys, fixture, &acked, stream, min(int(pos.Load()), len(stream))); err != nil {
		return err
	}
	return b.finishLayers(lates, fixture, stream, false)
}

// scratch-ls: the paper's own computation as library and CLI users run it.
// One caller runs rounds of core.LocalSensitivity with default options over
// the seven paper queries, closed loop; each round is checked against a
// reference computed at setup with Parallelism 1. core, relation, ghd and
// yannakakis do nearly all the work here. The serving workloads run them
// only at setup, and q1–q3 (the path algorithm among them) run nowhere
// else.
func scratchLS(b *bench) error {
	b.primary = []string{"round"}
	b.context["fixture"] = fixtureContext()
	// The seed rotates the order of the queries within a round; the data is
	// the fixed fixtures.
	all := workload.All()
	rot := int(uint64(b.opts.seed) % uint64(len(all)))
	specs := append(all[rot:], all[:rot]...)
	var (
		tp, fb *relation.Database
		refs   []*core.Result
	)
	dbFor := func(s *workload.Spec) *relation.Database {
		if isTPCH(s) {
			return tp
		}
		return fb
	}
	// Setup generates the fixtures and solves the reference.
	err := b.timeSetup(scratchSetupReps, func() (func(), error) {
		tp, fb = tpch(), facebook()
		refs = make([]*core.Result, len(specs))
		for i, s := range specs {
			opts := s.Options()
			opts.Parallelism = 1
			var err error
			if refs[i], err = core.LocalSensitivity(s.Query, dbFor(s), opts); err != nil {
				return nil, fmt.Errorf("reference %s: %w", s.Name, err)
			}
		}
		return func() {}, nil
	})
	if err != nil {
		return err
	}
	load := func(d time.Duration) (float64, time.Duration, error) {
		start := time.Now()
		rounds := 0
		for time.Since(start) < d {
			t := time.Now()
			traced := b.tr.active()
			var rerr error
			for i, s := range specs {
				st := time.Now()
				res, err := core.LocalSensitivity(s.Query, dbFor(s), s.Options())
				b.tr.add(b.tr.newID(), "core.solve."+s.Name, st, 0)
				if err == nil {
					err = sameResult(res, refs[i])
				}
				if err != nil && rerr == nil {
					rerr = fmt.Errorf("%s: %w", s.Name, err)
				}
			}
			b.rec.done("round", t, traced, rerr)
			rounds++
		}
		return float64(rounds), time.Since(start), nil
	}
	if err := b.measure(nil, load); err != nil {
		return err
	}
	return b.finishLayers(nil, fb, nil, false)
}

func isTPCH(s *workload.Spec) bool {
	for _, t := range workload.TPCH() {
		if t.Name == s.Name {
			return true
		}
	}
	return false
}

func fixtureContext() map[string]any {
	return map[string]any{
		"facebook":    map[string]int{"nodes": fbNodes, "edges": fbEdges, "circles": fbCircles},
		"tpch_scale":  tpchScale,
		"seed":        fixtureSeed,
		"delete_frac": deleteFrac,
	}
}

// recordServed records the context of a serving workload: fixture, server
// options, WAL placement and flush policy, and the workload's rates.
func (b *bench) recordServed(durable bool, rates map[string]any) {
	b.context["fixture"] = fixtureContext()
	b.context["rates"] = rates
	server := map[string]any{
		"options": "defaults: shards=min(GOMAXPROCS,8), async epochs, shared plans",
		"wal":     "none (in memory)",
	}
	if durable {
		server["wal"] = "directory under the checkout's .bench_build (same filesystem as the checkout)"
		server["flush"] = fmt.Sprintf("SyncEvery=1 (fsync before every acknowledgment), CheckpointEvery=%d", serve.DefaultCheckpointEvery)
	}
	b.context["server"] = server
}
