package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/obs"
)

const (
	// failedLatency stands in for the latency of a failed operation: a
	// failure misses every latency limit.
	failedLatency = 60 * time.Second
	// traceSlice is how long tracing stays on, then off, in turn during the
	// measured phase of a traced run; comparing the two halves gives the
	// tracing overhead.
	traceSlice = 250 * time.Millisecond
)

// bench is the state of one run shared by every workload.
type bench struct {
	opts    options
	rec     *recorder
	tr      *tracer // nil on untraced runs
	workers int     // client goroutines: at most two, at most the CPUs

	context map[string]any
	setups  []float64 // seconds per setup repetition

	// Filled by measure.
	measured time.Duration
	ops      float64 // operations completed in the measured phase
	heapMB   float64 // live heap at the end, less heapBaseMB
	// heapBaseMB is the live heap of the benchmark's own data (reference
	// fixture, update stream, request bodies), sampled by the workload
	// before its system is built; 0 when the workload sets none.
	heapBaseMB float64
	before     promText // server registry when the measured phase began
	after      promText // and when it ended
	// Runtime counters at the start and end of the measured phase.
	rtBefore, rtAfter rtSample

	// primary names the operation kinds the end-to-end latencies cover.
	primary []string

	layers map[string]metric // per-layer metrics of a traced run
	// runDir holds the run's WAL directories; removed when the run ends.
	runDir string
}

func newBench(o options) *bench {
	b := &bench{
		opts:    o,
		rec:     newRecorder(),
		workers: min(2, runtime.NumCPU()),
		layers:  make(map[string]metric),
	}
	if o.trace {
		b.tr = newTracer()
	}
	b.context = map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"clients":    b.workers,
	}
	return b
}

// scratchDir returns a fresh directory under the run's directory.
func (b *bench) scratchDir(name string) (string, error) {
	return os.MkdirTemp(b.runDir, name+"-")
}

func (b *bench) spanFile() string {
	return filepath.Join(b.opts.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.opts.workload, b.opts.seed))
}

// timeSetup builds the workload's system reps times and records each
// build's time; setup_s is their median. Every build but the last is torn
// down straight away, and the last serves the load.
func (b *bench) timeSetup(reps int, build func() (teardown func(), err error)) error {
	for i := 0; i < reps; i++ {
		start := time.Now()
		teardown, err := build()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		if i < reps-1 {
			teardown()
		}
	}
	return nil
}

// warmup is the untimed lead-in before the measured phase: long enough for
// lazy set-up and caches to settle, short against the measured phase.
func (b *bench) warmup() time.Duration {
	return min(time.Second, time.Duration(b.opts.seconds*float64(time.Second)/10))
}

// liveHeapMB returns the live heap in MB after a forced GC.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measure runs an untimed warm-up and then the measured phase of the load.
// load runs for the given time and returns the operations it completed and
// the time they took. The server registry (reg may be nil) and the runtime
// counters are sampled around the measured phase; the live heap is read
// after a forced GC at its end, less the benchmark's own data.
func (b *bench) measure(reg *obs.Registry, load func(d time.Duration) (ops float64, elapsed time.Duration, err error)) error {
	b.tr.setOn(false)
	if _, _, err := load(b.warmup()); err != nil {
		return err
	}
	b.before = scrape(reg)
	runtime.GC()
	b.rtBefore = readRuntime()
	b.rec.recording.Store(true)
	stop := b.tr.alternate()
	ops, elapsed, err := load(time.Duration(b.opts.seconds * float64(time.Second)))
	stop()
	b.rec.recording.Store(false)
	if err != nil {
		return err
	}
	b.heapMB = liveHeapMB() - b.heapBaseMB
	b.rtAfter = readRuntime()
	b.after = scrape(reg)
	b.ops, b.measured = ops, elapsed
	return nil
}

// endToEnd assembles the end-to-end metrics of an untraced run. p50_ms and
// p90_ms are quantiles over every operation of the primary kinds in the
// measured phase. The tail is p90: on a shared 2-vCPU VM, p99 moves by half
// between runs with the host's scheduling and the disk's fsync tail, so it
// is recorded in the context, per kind, but not bounded.
func (b *bench) endToEnd() map[string]metric {
	latency := make(map[string]any)
	for _, kind := range b.rec.kinds() {
		lat := b.rec.latencies([]string{kind}, false)
		latency[kind] = map[string]any{
			"samples": len(lat),
			"p50":     quantile(lat, 0.5) * 1e3,
			"p90":     quantile(lat, 0.9) * 1e3,
			"p99":     quantile(lat, 0.99) * 1e3,
		}
	}
	b.context["latency_ms"] = latency
	b.context["bench_heap_mb"] = b.heapBaseMB
	b.context["setups_s"] = b.setups
	lat := b.rec.latencies(b.primary, false)
	return map[string]metric{
		"setup_s":      {median(b.setups), "s"},
		"p50_ms":       {quantile(lat, 0.5) * 1e3, "ms"},
		"p90_ms":       {quantile(lat, 0.9) * 1e3, "ms"},
		"ops_per_s":    {b.ops / b.measured.Seconds(), "1/s"},
		"live_heap_mb": {b.heapMB, "MB"},
	}
}

// recorder collects per-operation latencies and the attempted and failed
// counts. Latencies are kept only while recording is on (the measured
// phase); counts cover every operation and check of the run.
type recorder struct {
	recording atomic.Bool
	attempted atomic.Int64
	failed    atomic.Int64

	mu  sync.Mutex
	lat map[sampleKey][]float64 // seconds
}

type sampleKey struct {
	kind   string
	traced bool
}

func newRecorder() *recorder { return &recorder{lat: make(map[sampleKey][]float64)} }

// done records one operation of kind timed from start. A failed operation
// counts with failedLatency.
func (r *recorder) done(kind string, start time.Time, traced bool, err error) {
	d := time.Since(start)
	r.attempted.Add(1)
	if err != nil {
		r.fail(kind, err)
		d = failedLatency
	}
	if !r.recording.Load() {
		return
	}
	r.mu.Lock()
	k := sampleKey{kind, traced}
	r.lat[k] = append(r.lat[k], d.Seconds())
	r.mu.Unlock()
}

// fail counts a failure that is not an operation's own (a check mismatch).
func (r *recorder) fail(what string, err error) {
	if n := r.failed.Add(1); n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// check counts one output check, failing it when err is non-nil.
func (r *recorder) check(what string, err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail(what, err)
	}
}

// latencies returns the recorded latencies of the given kinds, from traced
// or untraced operations.
func (r *recorder) latencies(kinds []string, traced bool) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, k := range kinds {
		out = append(out, r.lat[sampleKey{k, traced}]...)
	}
	return out
}

// kinds returns the operation kinds recorded, sorted.
func (r *recorder) kinds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for k := range r.lat {
		if !seen[k.kind] {
			seen[k.kind] = true
			out = append(out, k.kind)
		}
	}
	sort.Strings(out)
	return out
}

// openLoop issues jobs due at fixed intervals of 1/rate seconds for d, from
// b.workers goroutines that each take the next due job. When every worker
// is busy at a job's due time the job starts late, and its latency counts
// from the due time, so a stall shows in every job that queued behind it.
// A worker that was idle sleeps until the due time; the timer's overshoot
// (about 0.6 ms at the median on a 2-vCPU VM) is the generator's own delay,
// not the system's, so such a job is timed from when the worker woke. The
// job receives the time its latency counts from. openLoop returns how late
// each job started against its due time, overshoot and queueing alike.
func (b *bench) openLoop(rate float64, d time.Duration, job func(k int64, from time.Time, traced bool)) []float64 {
	start := time.Now()
	period := float64(time.Second) / rate
	var (
		next  atomic.Int64
		mu    sync.Mutex
		lates []float64
		wg    sync.WaitGroup
	)
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []float64
			for {
				k := next.Add(1) - 1
				off := time.Duration(float64(k) * period)
				if off >= d {
					break
				}
				due := start.Add(off)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
				}
				mine = append(mine, time.Since(due).Seconds())
				job(k, from, b.tr.active())
			}
			mu.Lock()
			lates = append(lates, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lates
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
