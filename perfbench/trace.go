package main

// Tracing of the benchmark's own calls into each layer. Spans are recorded
// only here, around public entry points: the HTTP handler (wrapped), the
// Server methods the benchmark calls, the WAL's files (through a wrapping
// wal.FS passed as Options.WALFS), incremental.Session and
// core.LocalSensitivity. Nothing inside the program is instrumented. Spans
// stay in memory and are written out as JSON lines when the run ends.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tsens/internal/serve/wal"
)

// spanHeader carries the client's span ID to the wrapped handler, so the
// client and handler spans of one request share it.
const spanHeader = "X-Perfbench-Span"

type span struct {
	ID    uint64 `json:"id"` // 0: not yet attributed to a request
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"` // since the tracer started
	End   int64  `json:"end_ns"`
	Bytes int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0  time.Time
	on  atomic.Bool
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
	t.on.Store(true)
	return t
}

// active reports whether spans are being recorded; false on a nil tracer.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newID returns a fresh span ID, or 0 when tracing is off.
func (t *tracer) newID() uint64 {
	if !t.active() {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// add records a span from start to now.
func (t *tracer) add(id uint64, layer string, start time.Time, bytes int64) {
	if !t.active() {
		return
	}
	s := span{ID: id, Layer: layer, Start: int64(start.Sub(t.t0)), End: int64(time.Since(t.t0)), Bytes: bytes}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// alternate switches tracing on and off every traceSlice until the returned
// stop function is called; stop leaves tracing on and returns once the
// switching goroutine has exited. A nil tracer returns a no-op.
func (t *tracer) alternate() (stop func()) {
	if t == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	t.on.Store(true)
	go func() {
		defer close(done)
		tick := time.NewTicker(traceSlice)
		defer tick.Stop()
		on := true
		for {
			select {
			case <-quit:
				t.on.Store(true)
				return
			case <-tick.C:
				on = !on
				t.on.Store(on)
			}
		}
	}()
	return func() { close(quit); <-done }
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as one JSON line. The file is synced, so its
// writeback cannot slow the fsyncs of a run that follows.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range attribute(t.snapshot()) {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler wraps the HTTP API, recording a handler span per request
// that carries a span ID.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	if id == 0 {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.add(id, "http."+requestKind(r.Method, r.URL.Path), start, 0)
}

// requestKind names the benchmark's three request kinds.
func requestKind(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/updates":
		return "update"
	case strings.HasSuffix(path, "/release"):
		return "release"
	default:
		return "read"
	}
}

// tracedFS wraps the WAL's filesystem, recording a span per file write and
// sync. Checkpoint files (and the directory syncs that install them) get
// their own layers, so log appends are not mixed with checkpoints.
type tracedFS struct {
	wal.FS
	tr *tracer
}

func (f tracedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	layer := "wal.segment"
	if strings.Contains(filepath.Base(name), "checkpoint") {
		layer = "wal.checkpoint"
	}
	return tracedFile{File: file, tr: f.tr, layer: layer}, nil
}

func (f tracedFS) OpenDir(name string) (wal.File, error) {
	file, err := f.FS.OpenDir(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, tr: f.tr, layer: "wal.checkpoint"}, nil
}

type tracedFile struct {
	wal.File
	tr    *tracer
	layer string
}

func (f tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.tr.add(0, f.layer+"_write", start, int64(n))
	return n, err
}

func (f tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.add(0, f.layer+"_sync", start, 0)
	return err
}

// walOwners are the spans inside which the WAL is written on a request's
// behalf.
var walOwners = map[string]bool{"http.update": true, "http.release": true, "serve.append": true, "serve.release": true}

// attribute gives each WAL span the ID of the request it ran for: the
// latest-starting owner span that encloses it. The WAL is written under the
// server's log lock during Append (and Release), so the request that most
// recently entered the server is the one appending. Returns spans sorted by
// start.
func attribute(spans []span) []span {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var owners []span
	for _, s := range spans {
		if walOwners[s.Layer] {
			owners = append(owners, s)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.ID != 0 || !strings.HasPrefix(s.Layer, "wal.") {
			continue
		}
		j := sort.Search(len(owners), func(j int) bool { return owners[j].Start > s.Start })
		// At most a few owners are in flight at once; a bounded look-back
		// keeps this linear.
		for k := j - 1; k >= 0 && k >= j-64; k-- {
			if owners[k].End >= s.End {
				s.ID = owners[k].ID
				break
			}
		}
	}
	return spans
}

// spanIndex groups spans for the per-layer metrics.
type spanIndex struct {
	byLayer map[string][]span
	byID    map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byLayer: make(map[string][]span), byID: make(map[uint64][]span)}
	for _, s := range attribute(spans) {
		ix.byLayer[s.Layer] = append(ix.byLayer[s.Layer], s)
		if s.ID != 0 {
			ix.byID[s.ID] = append(ix.byID[s.ID], s)
		}
	}
	return ix
}

// durations returns the span durations of a layer, in seconds.
func (ix spanIndex) durations(layer string) []float64 {
	var out []float64
	for _, s := range ix.byLayer[layer] {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// selfTimes returns, per span of layer, its duration minus the part of its
// interval covered by spans of the same request whose layer starts with
// childPrefix, in seconds.
func (ix spanIndex) selfTimes(layer, childPrefix string) []float64 {
	var out []float64
	for _, p := range ix.byLayer[layer] {
		var kids [][2]int64
		for _, c := range ix.byID[p.ID] {
			if strings.HasPrefix(c.Layer, childPrefix) && c.End > p.Start && c.Start < p.End {
				kids = append(kids, [2]int64{max(c.Start, p.Start), min(c.End, p.End)})
			}
		}
		out = append(out, (p.dur() - time.Duration(covered(kids))).Seconds())
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// pairGaps returns, per request with spans in both layers, outer minus
// inner, in seconds: the client round trip minus the handler time.
func (ix spanIndex) pairGaps(outer, inner string) []float64 {
	var out []float64
	for _, o := range ix.byLayer[outer] {
		for _, in := range ix.byID[o.ID] {
			if in.Layer == inner {
				out = append(out, (o.dur() - in.dur()).Seconds())
				break
			}
		}
	}
	return out
}
