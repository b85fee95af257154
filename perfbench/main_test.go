package main

import (
	"sort"
	"testing"

	"tsens/internal/core"
	"tsens/internal/obs"
	"tsens/internal/serve"
	"tsens/internal/workload"
)

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that it passes its own output checks and reports the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	endToEnd := []string{"live_heap_mb", "ops_per_s", "p50_ms", "p90_ms", "setup_s"}
	layers := []string{"http.update_handler_us_p50", "wal.fsync_us_p50", "serve.patch_us_p50",
		"incremental.propagate_us_p50.q4", "core.solve_ms.q3", "mechanism.fresh_frac",
		"runtime.gc_cpu_frac", "trace.overhead_p50_frac"}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res, _, err := run(options{workload: name, seed: 3, seconds: 0.3, trace: traced, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = layers
			}
			for _, m := range want {
				if _, ok := res.Metrics[m]; !ok {
					t.Errorf("%s trace=%v: no metric %s in %v", name, traced, m, keys(res.Metrics))
				}
			}
			if !traced && res.Metrics["p50_ms"].Value <= 0 {
				t.Errorf("%s: p50_ms = %v", name, res.Metrics["p50_ms"].Value)
			}
		}
	}
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCheckViewsFlagsCorruptReference checks the served-view checker both
// ways: it passes views against the true replay and flags every query
// when the reference database is corrupted.
func TestCheckViewsFlagsCorruptReference(t *testing.T) {
	fixture := facebook()
	cfgs, qs := facebookQueries(4, false)
	srv, err := serve.New(fixture, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, cfg := range cfgs {
		if _, _, err := srv.Register(cfg); err != nil {
			t.Fatal(err)
		}
	}
	stream := workload.UpdateStream(fixture, 200, deleteFrac, 5)
	var acked acks
	for i := 0; i < len(stream); i += 50 {
		from, _, err := srv.Append(stream[i : i+50])
		if err != nil {
			t.Fatal(err)
		}
		acked.add(from, i, 50)
	}
	if err := srv.WaitApplied(srv.Stats().Appended); err != nil {
		t.Fatal(err)
	}

	b := newBench(options{workload: "test"})
	b.checkViews(srv, qs, acked.replay(fixture, stream))
	if f := b.rec.failed.Load(); f != 0 {
		t.Fatalf("true reference: %d checks failed", f)
	}

	// Every query joins R1 and R2: dropping rows of both changes each
	// query's count.
	bad := acked.replay(fixture, stream)
	for _, rel := range []string{"R1", "R2"} {
		r := bad.Relation(rel)
		r.Rows = r.Rows[:len(r.Rows)/2]
	}
	b = newBench(options{workload: "test"})
	b.checkViews(srv, qs, bad)
	if f := b.rec.failed.Load(); f != int64(len(qs)) {
		t.Fatalf("corrupted reference: %d of %d checks failed, want all", f, len(qs))
	}
}

// TestSameResultFlagsCorruptReference checks the scratch-ls round checker
// against a reference whose sensitivities were tampered with.
func TestSameResultFlagsCorruptReference(t *testing.T) {
	spec := workload.QW()
	res, err := core.LocalSensitivity(spec.Query, facebook(), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.LocalSensitivity(spec.Query, facebook(), spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(res, ref); err != nil {
		t.Fatalf("identical solves differ: %v", err)
	}
	for rel, tr := range ref.PerRelation {
		bumped := *tr
		bumped.Sensitivity++
		ref.PerRelation[rel] = &bumped
		break
	}
	if sameResult(res, ref) == nil {
		t.Fatal("tampered per-relation sensitivity not flagged")
	}
	ref.LS++
	if sameResult(res, ref) == nil {
		t.Fatal("tampered LS not flagged")
	}
}

// TestHistDelta checks the registry histogram deltas the per-layer
// metrics read: only observations between the scrapes count.
func TestHistDelta(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("x_seconds", "test", []float64{1, 2, 4})
	h.Observe(3)
	before := scrape(reg)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(1.5)
	after := scrape(reg)
	d := deltaHist(before, after, "x_seconds", "")
	if d.total() != 3 {
		t.Fatalf("delta total %v, want 3", d.total())
	}
	if q := d.quantile(0.5); q <= 1 || q > 2 {
		t.Fatalf("delta p50 %v, want within (1, 2]", q)
	}
}

// TestCovered checks the interval union behind self times.
func TestCovered(t *testing.T) {
	if got := covered([][2]int64{{5, 8}, {0, 2}, {1, 3}, {7, 9}}); got != 7 {
		t.Fatalf("covered = %d, want 7", got)
	}
}
