package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	idm "repro"
	"repro/internal/iql"
	"repro/internal/obs"
	"repro/internal/storage"
)

// mirror is the traced run's second set of tenants: the same data as
// the daemon's, opened through the library under its own root with the
// daemon's open-tenant cap. Each traced request is replayed against it,
// with a span around every public call.
type mirror struct {
	root string
	cap  int
	// open, lru and closed are used by one replay at a time
	// (tracer.op).
	open map[string]*mirrorTenant
	lru  []string // least recently used first
	// closed holds the view count of each closed tenant.
	closed map[string]int
}

// mirrorTenant is one open mirror tenant. eng is a probe engine over
// the tenant's manager with no result cache.
type mirrorTenant struct {
	sys *idm.System
	eng *iql.Engine
}

func newMirror(root string, cap int) *mirror {
	return &mirror{root: root, cap: cap, open: make(map[string]*mirrorTenant), closed: make(map[string]int)}
}

// tenantConfig is the configuration imemexd opens every tenant with.
func tenantConfig(dir string) idm.Config {
	return idm.Config{DataDir: dir, Parallelism: 1, QueryLogSize: -1}
}

// create opens (creating) a tenant outside any trace; set-up only.
func (m *mirror) create(name string) (*idm.System, error) {
	t, err := m.openTenant(name, nil, nil)
	if err != nil {
		return nil, err
	}
	return t.sys, nil
}

// acquire returns the named tenant, opening it (and evicting the least
// recently used one over the cap) when it is closed. An open is
// recorded as an idm.OpenDurable span under req, with the storage
// recovery it includes measured as a storage.Open child.
func (m *mirror) acquire(tr *tracer, req *span, name string) (*mirrorTenant, error) {
	if t, ok := m.open[name]; ok {
		m.touch(name)
		return t, nil
	}
	return m.openTenant(name, tr, req)
}

func (m *mirror) touch(name string) {
	for i, n := range m.lru {
		if n == name {
			m.lru = append(m.lru[:i], m.lru[i+1:]...)
			break
		}
	}
	m.lru = append(m.lru, name)
}

func (m *mirror) openTenant(name string, tr *tracer, req *span) (*mirrorTenant, error) {
	for len(m.open) >= m.cap {
		victim := m.lru[0]
		m.lru = m.lru[1:]
		if err := m.close(victim); err != nil {
			return nil, err
		}
	}
	dir := filepath.Join(m.root, name)
	var sp *span
	if tr != nil {
		sp = tr.begin(req.Req, req, spanOpen)
		var err error
		tr.record(req.Req, sp, spanRecover, func(s *span) { err = recoverOnce(dir, s) })
		if err != nil {
			return nil, err
		}
		sp.Start = int64(tr.now())
	}
	var m0, m1 runtime.MemStats
	if sp != nil {
		runtime.ReadMemStats(&m0)
	}
	sys, _, err := idm.OpenDurable(tenantConfig(dir))
	if sp != nil {
		runtime.ReadMemStats(&m1)
		sp.set("alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
		tr.finish(sp)
	}
	if err != nil {
		return nil, fmt.Errorf("mirror: open %s: %w", name, err)
	}
	t := &mirrorTenant{sys: sys, eng: iql.NewEngine(sys.Manager(), iql.Options{Parallelism: 1, Planner: iql.PlannerAdaptive})}
	m.open[name] = t
	m.touch(name)
	return t, nil
}

// closeSystem closes a System's source plugins, then the System. The
// plugins' watch goroutines would otherwise keep the whole System
// reachable after Close.
func closeSystem(sys *idm.System) error {
	for _, id := range sys.Sources() {
		if src, ok := sys.Manager().Source(id); ok {
			src.Close()
		}
	}
	return sys.Close()
}

// recoverOnce opens and closes the tenant's storage engine alone,
// recording the records recovery replayed.
func recoverOnce(dir string, s *span) error {
	reg := obs.NewRegistry()
	st, _, err := storage.Open(dir, storage.Options{Metrics: reg})
	if err != nil {
		return fmt.Errorf("mirror: storage.Open %s: %w", dir, err)
	}
	s.set("replayed", reg.Counter("wal_replayed_records_total").Value()+reg.Counter("cstore_replayed_records_total").Value())
	return st.Close()
}

// close closes one open tenant, keeping its view count.
func (m *mirror) close(name string) error {
	t := m.open[name]
	m.closed[name] = t.sys.Count()
	delete(m.open, name)
	if err := closeSystem(t.sys); err != nil {
		return fmt.Errorf("mirror: close %s: %w", name, err)
	}
	return nil
}

// closeAll closes every open mirror tenant.
func (m *mirror) closeAll() {
	for name := range m.open {
		m.close(name)
	}
	m.lru = nil
}

// views sums the views of every mirror tenant, open or closed.
func (m *mirror) views() int {
	n := 0
	for name, c := range m.closed {
		if _, ok := m.open[name]; !ok {
			n += c
		}
	}
	for _, t := range m.open {
		n += t.sys.Count()
	}
	return n
}

// storeCounters reads a tenant's WAL append, byte and fsync counters.
func storeCounters(sys *idm.System) (appends, bytes, fsyncs int64) {
	reg := sys.Metrics()
	return reg.Counter("wal_appends_total").Value(),
		reg.Counter("wal_append_bytes_total").Value(),
		reg.Counter("wal_fsyncs_total").Value()
}

// replayQuery replays one /query request against a mirror tenant.
// System.Query is on the blocking path; when the facade missed its
// cache, the engine work it did is measured again as an
// iql.Engine.Query child, and iql.Parse as a probe under that.
func (m *mirror) replayQuery(tr *tracer, req *span, tenant, q string) error {
	t, err := m.acquire(tr, req, tenant)
	if err != nil {
		return err
	}
	fq := tr.begin(req.Req, req, spanQuery)
	res, err := t.sys.Query(q)
	tr.finish(fq)
	if err != nil {
		return err
	}
	fq.set("rows", int64(len(res.Rows)))
	if res.Stats.CacheHit {
		fq.set("cache_hit", 1)
		return nil
	}
	ev := tr.begin(req.Req, fq, spanEval)
	r, err := t.eng.Query(q)
	tr.finish(ev)
	if err != nil {
		return err
	}
	ev.set("rows", r.Stats.Rows)
	ev.set("rows_scanned", r.Stats.RowsScanned)
	ev.set("postings", r.Stats.PostingsRead)
	ev.set("views_expanded", r.Stats.ViewsExpanded)
	ev.set("estimated_rows", r.Stats.EstimatedRows)
	ps := tr.begin(req.Req, ev, spanParse)
	ps.Probe = true
	_, err = iql.Parse(q)
	tr.finish(ps)
	return err
}

// replayWrite replays one write request against a mirror tenant: fn in
// a span under req, with the WAL appends, bytes and fsyncs it caused as
// counts.
func (m *mirror) replayWrite(tr *tracer, req *span, tenant, name string, fn func(*idm.System) error) error {
	t, err := m.acquire(tr, req, tenant)
	if err != nil {
		return err
	}
	_, err = recordWrite(tr, req, name, t.sys, fn)
	return err
}

func recordWrite(tr *tracer, req *span, name string, sys *idm.System, fn func(*idm.System) error) (*span, error) {
	a0, b0, f0 := storeCounters(sys)
	var err error
	s := tr.record(req.Req, req, name, func(*span) { err = fn(sys) })
	a1, b1, f1 := storeCounters(sys)
	s.set("appends", a1-a0)
	s.set("append_bytes", b1-b0)
	s.set("fsyncs", f1-f0)
	return s, err
}

// replayAdd replays a source add with sync: AddFileSystem, then
// IndexTraced with its Figure 5 split and the derived-view count of the
// new source.
func (m *mirror) replayAdd(tr *tracer, req *span, tenant, src string, files map[string]string) error {
	t, err := m.acquire(tr, req, tenant)
	if err != nil {
		return err
	}
	fs := buildFS(files)
	if _, err := recordWrite(tr, req, spanAdd, t.sys, func(sys *idm.System) error { return sys.AddFileSystem(src, fs) }); err != nil {
		return err
	}
	var rep idm.SyncReport
	s, err := recordWrite(tr, req, spanSync, t.sys, func(sys *idm.System) error {
		var err error
		rep, _, err = sys.IndexTraced()
		return err
	})
	if err != nil {
		return err
	}
	var cat, ix, acc time.Duration
	for _, tm := range rep.Timings {
		cat += tm.CatalogInsert
		ix += tm.ComponentIndexing
		acc += tm.DataSourceAccess
	}
	bd := t.sys.Breakdown(src)
	s.set("views", int64(rep.TotalViews()))
	s.set("source_views", int64(bd.Total))
	s.set("derived_views", int64(bd.Total-bd.Base))
	s.set("files", int64(len(files)))
	s.set("catalog_ns", int64(cat))
	s.set("index_ns", int64(ix))
	s.set("access_ns", int64(acc))
	return nil
}
