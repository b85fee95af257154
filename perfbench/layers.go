package main

// Per-layer metrics of a traced run. Three sources feed them:
//
//   - spans the benchmark recorded around its calls into each layer
//     (trace.go);
//   - before/after deltas of the histograms and counters the server's
//     obs.Registry already exports, for the stages the benchmark cannot
//     reach from outside (ingress, shard routing, patch, publish, drain);
//   - runtime/metrics deltas over the measured phase.
//
// A layer the workload does not reach reports 0.

import (
	"bufio"
	"bytes"
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"tsens/internal/obs"
)

// promText is one scrape of a registry: sample line key → value.
type promText map[string]float64

// scrape renders reg in the Prometheus text format /metrics serves and
// parses it back. A nil registry scrapes empty.
func scrape(reg *obs.Registry) promText {
	out := make(promText)
	if reg == nil {
		return out
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sampleMatches reports whether key is a sample of family (exact name, or
// name{labels}) whose labels contain match.
func sampleMatches(key, family, match string) bool {
	if key != family && !strings.HasPrefix(key, family+"{") {
		return false
	}
	return match == "" || strings.Contains(key[len(family):], match)
}

// counterDelta sums after − before over the matching samples of family.
func counterDelta(before, after promText, family, match string) float64 {
	var d float64
	for k, v := range after {
		if sampleMatches(k, family, match) {
			d += v - before[k]
		}
	}
	return d
}

// gauge sums the matching samples of family in one scrape.
func gauge(p promText, family string) float64 {
	var v float64
	for k, x := range p {
		if sampleMatches(k, family, "") {
			v += x
		}
	}
	return v
}

// histDelta is a histogram of the observations made between two scrapes,
// merged over every series of family whose labels contain match.
type histDelta struct {
	bounds []float64 // upper bucket edges; +Inf last
	counts []float64 // per bucket, not cumulative
}

func deltaHist(before, after promText, family, match string) histDelta {
	cum := make(map[float64]float64)
	for k, v := range after {
		if !sampleMatches(k, family+"_bucket", "") || !strings.Contains(k, match) {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4:]
		le = le[:strings.IndexByte(le, '"')]
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		cum[bound] += v - before[k]
	}
	var h histDelta
	for b := range cum {
		h.bounds = append(h.bounds, b)
	}
	sort.Float64s(h.bounds)
	prev := 0.0
	for _, b := range h.bounds {
		h.counts = append(h.counts, cum[b]-prev)
		prev = cum[b]
	}
	return h
}

func (h histDelta) total() float64 {
	var n float64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// quantile interpolates within the containing bucket, as obs.Histogram
// does; the overflow bucket reports the largest finite bound.
func (h histDelta) quantile(q float64) float64 {
	total := h.total()
	if total <= 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for i, b := range h.bounds {
		n := h.counts[i]
		if cum+n >= rank && n > 0 {
			if math.IsInf(b, 1) {
				break
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (b-lo)*(rank-cum)/n
		}
		cum += n
	}
	for i := len(h.bounds) - 1; i >= 0; i-- {
		if !math.IsInf(h.bounds[i], 1) {
			return h.bounds[i]
		}
	}
	return 0
}

// rtSample holds the runtime counters read around the measured phase.
type rtSample struct {
	gcCPU, totalCPU, idleCPU, allocBytes float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: v(0), totalCPU: v(1), idleCPU: v(2), allocBytes: v(3)}
}

// serverLayers adds the per-layer metrics of the http, wal, serve,
// incremental (in-server), mechanism, runtime and load-generator layers
// from the spans and the registry deltas of the measured phase.
func (b *bench) serverLayers(ix spanIndex, lates []float64) {
	us, ms := 1e6, 1e3
	p := func(xs []float64, q, scale float64) float64 { return quantile(xs, q) * scale }
	hq := func(family, match string, q, scale float64) float64 {
		return deltaHist(b.before, b.after, family, match).quantile(q) * scale
	}
	put := func(name, unit string, v float64) { b.layers[name] = metric{v, unit} }

	// http: serve.API behind the wrapping handler.
	put("http.update_handler_us_p50", "us", p(ix.durations("http.update"), 0.5, us))
	put("http.update_self_us_p50", "us", p(ix.selfTimes("http.update", "wal."), 0.5, us))
	put("http.ingress_us_p50", "us", hq("tsens_trace_stage_seconds", `stage="ingress"`, 0.5, us))
	var gaps []float64
	for _, k := range []string{"update", "read", "release"} {
		gaps = append(gaps, ix.pairGaps("client."+k, "http."+k)...)
	}
	put("http.transport_us_p50", "us", p(gaps, 0.5, us))
	put("http.read_handler_us_p50", "us", p(ix.durations("http.read"), 0.5, us))
	put("http.release_handler_us_p50", "us", p(ix.durations("http.release"), 0.5, us))

	// wal: file writes and syncs through the wrapping FS, checkpoints from
	// the registry.
	appends, syncs := ix.durations("wal.segment_write"), ix.durations("wal.segment_sync")
	put("wal.append_us_p50", "us", p(appends, 0.5, us))
	put("wal.append_us_p99", "us", p(appends, 0.99, us))
	put("wal.fsync_us_p50", "us", p(syncs, 0.5, us))
	put("wal.fsync_us_p99", "us", p(syncs, 0.99, us))
	records := float64(len(appends))
	var walBytes float64
	for _, s := range ix.byLayer["wal.segment_write"] {
		walBytes += float64(s.Bytes)
	}
	put("wal.fsyncs_per_write", "ratio", ratio(float64(len(syncs)), records))
	put("wal.bytes_per_write", "B", ratio(walBytes, records))
	ckpt := deltaHist(b.before, b.after, "tsens_wal_checkpoint_seconds", "")
	put("wal.checkpoints", "count", ckpt.total())
	put("wal.checkpoint_ms_p50", "ms", ckpt.quantile(0.5)*ms)

	// serve: the Server methods the benchmark calls, and the drain stages
	// from the registry.
	put("serve.append_self_us_p50", "us", p(ix.selfTimes("serve.append", "wal."), 0.5, us))
	put("serve.visible_wait_us_p50", "us", p(ix.durations("serve.wait"), 0.5, us))
	put("serve.drain_round_us_p50", "us", hq("tsens_serve_drain_round_seconds", "", 0.5, us))
	put("serve.drain_round_us_p99", "us", hq("tsens_serve_drain_round_seconds", "", 0.99, us))
	put("serve.route_us_p50", "us", hq("tsens_trace_stage_seconds", `stage="shard-route"`, 0.5, us))
	put("serve.patch_us_p50", "us", hq("tsens_serve_shard_patch_seconds", "", 0.5, us))
	put("serve.patch_us_p99", "us", hq("tsens_serve_shard_patch_seconds", "", 0.99, us))
	put("serve.publish_us_p50", "us", hq("tsens_serve_publish_seconds", "", 0.5, us))
	put("serve.batch_entries_mean", "count", ratio(
		counterDelta(b.before, b.after, "tsens_serve_drain_batch_entries_sum", ""),
		counterDelta(b.before, b.after, "tsens_serve_drain_batch_entries_count", "")))
	put("serve.skipped_frac", "ratio", ratio(
		counterDelta(b.before, b.after, "tsens_serve_skipped", ""),
		counterDelta(b.before, b.after, "tsens_serve_appended", "")))
	put("serve.read_us_p50", "us", p(ix.durations("serve.ls"), 0.5, us))
	put("serve.register_ms_p50", "ms", p(ix.durations("serve.register"), 0.5, ms))

	// incremental, inside the server: per-update propagation of the served
	// sessions, rebuilds, and plan sharing at the end of the run.
	put("incremental.session_update_us_p50", "us", hq("tsens_session_update_seconds", "", 0.5, us))
	put("incremental.rebuilds", "count", counterDelta(b.before, b.after, "tsens_session_rebuilds_total", ""))
	put("incremental.plan_nodes_shared", "count", gauge(b.after, "tsens_plan_nodes_shared"))
	put("incremental.node_refs_per_node", "ratio", ratio(gauge(b.after, "tsens_plan_node_refs_total"), gauge(b.after, "tsens_plan_nodes_total")))

	// mechanism: direct mechanism.Release calls, and the fresh share of the
	// releases the server answered.
	put("mechanism.release_us_p50", "us", p(ix.durations("mechanism.release"), 0.5, us))
	fresh := counterDelta(b.before, b.after, "tsens_serve_releases_total", `fresh="true"`)
	put("mechanism.fresh_frac", "ratio", ratio(fresh, counterDelta(b.before, b.after, "tsens_serve_releases_total", "")))

	// runtime over the measured phase.
	used := (b.rtAfter.totalCPU - b.rtBefore.totalCPU) - (b.rtAfter.idleCPU - b.rtBefore.idleCPU)
	put("runtime.gc_cpu_frac", "ratio", ratio(b.rtAfter.gcCPU-b.rtBefore.gcCPU, used))
	put("runtime.alloc_bytes_per_op", "B", ratio(b.rtAfter.allocBytes-b.rtBefore.allocBytes, b.ops))

	// load generator and tracing overhead.
	put("loadgen.late_us_p50", "us", p(lates, 0.5, us))
	put("loadgen.late_us_p99", "us", p(lates, 0.99, us))
	traced, untraced := b.rec.latencies(b.primary, true), b.rec.latencies(b.primary, false)
	put("trace.overhead_p50_frac", "ratio", ratio(quantile(traced, 0.5), quantile(untraced, 0.5))-1)
	put("trace.overhead_p90_frac", "ratio", ratio(quantile(traced, 0.9), quantile(untraced, 0.9))-1)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
