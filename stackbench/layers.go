package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. base states what a ratio or mean is
// taken over.
type metric struct {
	name  string
	unit  string
	value float64
	base  string
}

// perLayer lists the per-layer metrics in report order; the traced run
// emits every one of them on every workload (0 where the layer is not
// on the workload's path).
var perLayer = []struct{ name, unit string }{
	{"server.self_us_per_req", "us"},
	{"server.resp_bytes_per_req", "bytes"},
	{"server.throttled_per_1k_req", "count"},
	{"server.tenant_opens_per_req", "count"},
	{"open.ms_p50", "ms"},
	{"open.ms_p99", "ms"},
	{"open.alloc_mb_per_open", "MB"},
	{"storage.recover_ms_p50", "ms"},
	{"storage.replayed_records_per_open", "count"},
	{"storage.appends_per_view", "count"},
	{"storage.append_bytes_per_view", "bytes"},
	{"storage.fsyncs_per_write", "count"},
	{"storage.checkpoint_ms_p50", "ms"},
	{"storage.disk_bytes_per_view", "bytes"},
	{"rvm.restore_ms_p50", "ms"},
	{"sync.ms_per_1k_views", "ms"},
	{"sync.source_access_share", "ratio"},
	{"sync.catalog_insert_share", "ratio"},
	{"sync.component_index_share", "ratio"},
	{"sync.derived_views_per_file", "count"},
	{"sync.remove_ms_p50", "ms"},
	{"iql.parse_us_p50", "us"},
	{"iql.eval_us_p50", "us"},
	{"iql.eval_us_p99", "us"},
	{"iql.rows_scanned_per_row", "count"},
	{"iql.postings_per_row", "count"},
	{"iql.views_expanded_per_query", "count"},
	{"iql.estimate_error_p50", "ratio"},
	{"facade.query_us_p50", "us"},
	{"facade.materialize_ns_per_row", "ns"},
	{"facade.cache_hit_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.coverage_pct", "%"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("unknown per-layer metric " + name)
}

// Span names recorded by the replay.
const (
	spanOpen       = "idm.OpenDurable"
	spanRecover    = "storage.Open"
	spanQuery      = "idm.System.Query"
	spanEval       = "iql.Engine.Query"
	spanParse      = "iql.Parse"
	spanAdd        = "idm.System.AddFileSystem"
	spanSync       = "idm.System.IndexTraced"
	spanRemove     = "idm.System.RemoveSource"
	spanCheckpoint = "idm.System.Checkpoint"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sumAttr(spans []*span, key string) int64 {
	var n int64
	for _, s := range spans {
		n += s.Attrs[key]
	}
	return n
}

func durs(spans []*span) samples {
	out := make(samples, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

// layerReport computes the per-layer metrics of a traced phase from its
// spans, the daemon's counters and the untraced baseline phase.
func layerReport(tr *tracer, untraced, traced *phase, diskPerView float64, diskBase string) []metric {
	var out []metric
	add := func(name string, v float64, base string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out = append(out, metric{name: name, unit: unitOf(name), value: v, base: base})
	}
	tr.mu.Lock()
	all := append([]*span(nil), tr.spans...)
	tr.mu.Unlock()
	children := make(map[int64][]*span)
	for _, s := range all {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var roots []*span
	for _, s := range all {
		if s.Parent == 0 {
			roots = append(roots, s)
		}
	}
	// blocking sums the non-probe children of s.
	blocking := func(s *span) time.Duration {
		var d time.Duration
		for _, c := range children[s.ID] {
			if !c.Probe {
				d += c.dur()
			}
		}
		return d
	}
	named := func(name string) []*span {
		var ss []*span
		for _, s := range all {
			if s.Name == name {
				ss = append(ss, s)
			}
		}
		return ss
	}

	// server: request time minus the facade and open time replayed
	// under it.
	var reqDur, below time.Duration
	for _, r := range roots {
		reqDur += r.dur()
		below += blocking(r)
	}
	self := reqDur - below
	if self < 0 {
		self = 0
	}
	nReq := float64(len(roots))
	reqBase := fmt.Sprintf("over %d traced requests", len(roots))
	add("server.self_us_per_req", us(self)/nReq, reqBase)
	ok := float64(traced.rec.attempted - traced.rec.failed)
	add("server.resp_bytes_per_req", float64(traced.rec.respBytes)/ok, fmt.Sprintf("%d bytes over %.0f answered requests", traced.rec.respBytes, ok))
	add("server.throttled_per_1k_req", 1000*ratio(float64(traced.srvThrottled), float64(traced.srvRequests)),
		fmt.Sprintf("%d srv_throttled_total over %d srv_requests_total", traced.srvThrottled, traced.srvRequests))
	add("server.tenant_opens_per_req", ratio(float64(traced.srvOpens), float64(traced.srvRequests)),
		fmt.Sprintf("%d srv_tenant_opens_total over %d srv_requests_total", traced.srvOpens, traced.srvRequests))

	// tenant open and its storage recovery.
	opens := named(spanOpen)
	recovers := named(spanRecover)
	openBase := fmt.Sprintf("over %d opens", len(opens))
	add("open.ms_p50", durs(opens).quantile(0.5), openBase)
	add("open.ms_p99", durs(opens).quantile(0.99), openBase)
	add("open.alloc_mb_per_open", ratio(float64(sumAttr(opens, "alloc_bytes"))/(1<<20), float64(len(opens))), openBase)
	add("storage.recover_ms_p50", durs(recovers).quantile(0.5), fmt.Sprintf("over %d storage.Open calls", len(recovers)))
	add("storage.replayed_records_per_open", ratio(float64(sumAttr(recovers, "replayed")), float64(len(recovers))),
		fmt.Sprintf("%d records over %d storage.Open calls", sumAttr(recovers, "replayed"), len(recovers)))

	// writes.
	syncs := named(spanSync)
	adds := append(named(spanAdd), syncs...)
	removes := named(spanRemove)
	checkpoints := named(spanCheckpoint)
	writes := append(append(append([]*span(nil), adds...), removes...), checkpoints...)
	srcViews := sumAttr(syncs, "source_views")
	add("storage.appends_per_view", ratio(float64(sumAttr(adds, "appends")), float64(srcViews)),
		fmt.Sprintf("%d WAL appends over %d views added", sumAttr(adds, "appends"), srcViews))
	add("storage.append_bytes_per_view", ratio(float64(sumAttr(adds, "append_bytes")), float64(srcViews)),
		fmt.Sprintf("%d WAL bytes over %d views added", sumAttr(adds, "append_bytes"), srcViews))
	writeReqs := 0
	for _, r := range roots {
		if !strings.HasSuffix(r.Name, " /query") {
			writeReqs++
		}
	}
	add("storage.fsyncs_per_write", ratio(float64(sumAttr(writes, "fsyncs")), float64(writeReqs)),
		fmt.Sprintf("%d fsyncs over %d write requests", sumAttr(writes, "fsyncs"), writeReqs))
	add("storage.checkpoint_ms_p50", durs(checkpoints).quantile(0.5), fmt.Sprintf("over %d checkpoints", len(checkpoints)))
	add("storage.disk_bytes_per_view", diskPerView, diskBase)

	var restores samples
	for _, o := range opens {
		restores = append(restores, o.dur()-blocking(o))
	}
	add("rvm.restore_ms_p50", restores.quantile(0.5), openBase)

	var syncDur time.Duration
	for _, s := range syncs {
		syncDur += s.dur()
	}
	views := sumAttr(syncs, "views")
	syncBase := fmt.Sprintf("over %d syncs of %d views", len(syncs), views)
	add("sync.ms_per_1k_views", ratio(ms(syncDur), float64(views)/1000), syncBase)
	cat, ix, acc := sumAttr(syncs, "catalog_ns"), sumAttr(syncs, "index_ns"), sumAttr(syncs, "access_ns")
	split := float64(cat + ix + acc)
	shareBase := fmt.Sprintf("of %.1f ms Figure 5 time %s", split/1e6, syncBase)
	add("sync.source_access_share", ratio(float64(acc), split), shareBase)
	add("sync.catalog_insert_share", ratio(float64(cat), split), shareBase)
	add("sync.component_index_share", ratio(float64(ix), split), shareBase)
	files := sumAttr(syncs, "files")
	add("sync.derived_views_per_file", ratio(float64(sumAttr(syncs, "derived_views")), float64(files)),
		fmt.Sprintf("%d derived views over %d files", sumAttr(syncs, "derived_views"), files))
	add("sync.remove_ms_p50", durs(removes).quantile(0.5), fmt.Sprintf("over %d removals", len(removes)))

	// iql.
	parses := named(spanParse)
	evals := named(spanEval)
	evalBase := fmt.Sprintf("over %d engine evaluations", len(evals))
	add("iql.parse_us_p50", 1000*durs(parses).quantile(0.5), fmt.Sprintf("over %d parses", len(parses)))
	add("iql.eval_us_p50", 1000*durs(evals).quantile(0.5), evalBase)
	add("iql.eval_us_p99", 1000*durs(evals).quantile(0.99), evalBase)
	rows := float64(sumAttr(evals, "rows"))
	add("iql.rows_scanned_per_row", ratio(float64(sumAttr(evals, "rows_scanned")), rows),
		fmt.Sprintf("%d rows scanned over %.0f result rows", sumAttr(evals, "rows_scanned"), rows))
	add("iql.postings_per_row", ratio(float64(sumAttr(evals, "postings")), rows),
		fmt.Sprintf("%d postings over %.0f result rows", sumAttr(evals, "postings"), rows))
	add("iql.views_expanded_per_query", ratio(float64(sumAttr(evals, "views_expanded")), float64(len(evals))), evalBase)
	var estErr []float64
	for _, e := range evals {
		if est := e.Attrs["estimated_rows"]; est >= 0 {
			actual := float64(e.Attrs["rows"])
			estErr = append(estErr, math.Abs(float64(est)-actual)/math.Max(actual, 1))
		}
	}
	add("iql.estimate_error_p50", median(estErr), fmt.Sprintf("|estimate-actual|/actual over %d estimated evaluations", len(estErr)))

	// facade.
	queries := named(spanQuery)
	qBase := fmt.Sprintf("over %d System.Query calls", len(queries))
	add("facade.query_us_p50", 1000*durs(queries).quantile(0.5), qBase)
	var matNs time.Duration
	var matRows int64
	hits := 0
	for _, q := range queries {
		if q.Attrs["cache_hit"] == 1 {
			hits++
			continue
		}
		matNs += q.dur() - blocking(q)
		matRows += q.Attrs["rows"]
	}
	if matNs < 0 {
		matNs = 0
	}
	add("facade.materialize_ns_per_row", ratio(float64(matNs), float64(matRows)),
		fmt.Sprintf("%.1f ms over %d rows of %d cache misses", ms(matNs), matRows, len(queries)-hits))
	add("facade.cache_hit_ratio", ratio(float64(hits), float64(len(queries))), fmt.Sprintf("%d hits %s", hits, qBase))

	// the trace itself.
	base := untraced.reqPerSec()
	add("trace.overhead_pct", 100*ratio(base-traced.reqPerSec(), base),
		fmt.Sprintf("untraced %.1f req/s, traced %.1f req/s", base, traced.reqPerSec()))
	reqLat := append(append(samples(nil), untraced.rec.lat[kindQuery]...), untraced.rec.lat[kindWrite]...)
	add("trace.coverage_pct", 100*ratio(us(below)/nReq, 1000*reqLat.mean()),
		fmt.Sprintf("layer time below the server %.1f us/req of untraced mean request latency %.1f us", us(below)/nReq, 1000*reqLat.mean()))
	return out
}

// printLayers prints the blocking-path self times by span name, then
// every per-layer metric with its base.
func printLayers(w io.Writer, name string, tr *tracer, ms []metric) {
	stats := tr.layers()
	nReq := 0
	for n, s := range stats {
		if strings.HasPrefix(n, "server ") {
			nReq += s.n
		}
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].self > stats[names[j]].self })
	fmt.Fprintf(w, "%s layers: self time per traced request (%d requests), calls, mean per call\n", name, nReq)
	for _, n := range names {
		s := stats[n]
		fmt.Fprintf(w, "  %-28s %10.1f us/req  %7d calls  %10.1f us/call\n", n, us(s.self)/float64(nReq), s.n, us(s.total)/float64(s.n))
	}
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %.6g %s (%s)\n", name, m.name, m.value, m.unit, m.base)
	}
}
