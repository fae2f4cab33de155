package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	idm "repro"
)

// The ingest workload: writes beside reads. The client loops: add an
// inline fs source with a sync, query the source's marker, delete the
// source. It runs its cycles in rounds of roundCycles on open tenants
// that each hold a base dataset, moving to the next tenant every round,
// and checkpoints once a round. Each add+sync slows as the
// tenant's add/delete history grows (README.md), so on a single tenant
// a run's latencies would depend on how many cycles it got through;
// with rounds, every run measures the same stretch of history over and
// over. A run ends at the end of a round, so it can overrun the
// deadline by up to one round.
const (
	// ingestTenants is the number of tenants, all open at once (it is
	// also the daemon's cap). It covers the rounds of a 30 s run on a
	// machine well faster than the one the sizes were set on; a longer
	// run wraps around to tenants that already have a history.
	ingestTenants = 12
	roundCycles   = 10
	ingestFolders = 4
)

type ingestWorkload struct {
	scale    float64
	dataSeed int64
	nFiles   int

	// templates[c] are client c's files; a cycle's content is head +
	// marker + tail, so only the marker changes between cycles.
	templates [clients][]fileTemplate
	seedTag   string
	content   int64 // source content of one tenant between cycles

	mu   sync.Mutex
	used map[string]bool // tenants the phase's cycles wrote to
}

type fileTemplate struct {
	path, name, head, tail string
}

func (w *ingestWorkload) maxOpen() int      { return ingestTenants }
func (w *ingestWorkload) begin()            { w.used = make(map[string]bool) }
func (w *ingestWorkload) scales() []float64 { return []float64{w.scale} }

// stored names the tenants the phase wrote to: how many there are
// depends on how many rounds the phase got through, and each holds one
// round's history (a tenant left untouched holds none).
func (w *ingestWorkload) stored() ([]string, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var names []string
	for _, t := range w.tenantNames() {
		if w.used[t] {
			names = append(names, t)
		}
	}
	return names, int64(len(names)) * w.content
}

func (w *ingestWorkload) tenantNames() []string {
	names := make([]string, ingestTenants)
	for i := range names {
		names[i] = ingestTenant(i)
	}
	return names
}

func ingestTenant(i int) string { return fmt.Sprintf("i%02d", i) }

// roundTenant is the tenant of client c's cycle k: clients take the
// tenants in turn, one round each.
func roundTenant(c, k int) string {
	return ingestTenant((k/roundCycles*clients + c) % ingestTenants)
}

func (w *ingestWorkload) datasetConfig() idm.DatasetConfig {
	return idm.DatasetConfig{Scale: w.scale, Seed: w.dataSeed}
}

// prepare writes each client's file templates from --seed. The file
// layout (names, kinds, sections, records) does not depend on the
// seed, only the words do, so the views Content2iDM derives per file
// repeat exactly across seeds.
func (w *ingestWorkload) prepare(b *bench) error {
	w.seedTag = strconv.FormatUint(uint64(b.opt.seed), 36)
	for c := range w.templates {
		rng := rand.New(rand.NewSource(b.opt.seed*1000 + int64(c)))
		w.templates[c] = make([]fileTemplate, w.nFiles)
		for j := range w.templates[c] {
			w.templates[c][j] = makeTemplate(rng, j)
		}
	}
	info := idm.GenerateDataset(w.datasetConfig()).Info
	w.content = info.FSBytes + info.MailBytes
	return nil
}

// makeTemplate returns file j: plain text, LaTeX or XML in turn.
func makeTemplate(rng *rand.Rand, j int) fileTemplate {
	s := func(n int) string { return sentence(rng, n) }
	t := fileTemplate{}
	switch j % 3 {
	case 0:
		t.name = fmt.Sprintf("f%03d.txt", j)
		t.head = s(40) + " "
		t.tail = " " + s(40) + "\n"
	case 1:
		t.name = fmt.Sprintf("f%03d.tex", j)
		t.head = "\\documentclass{article}\n\\begin{document}\n\\section{Introduction}\n" + s(30) + " "
		t.tail = " " + s(30) + "\n\\section{Method}\n" + s(30) +
			"\n\\subsection{Setup}\n" + s(20) + "\n\\section{Results}\n" + s(30) + "\n\\end{document}\n"
	default:
		t.name = fmt.Sprintf("f%03d.xml", j)
		t.head = "<dataset>\n<record id=\"1\"><title>" + s(3) + "</title><body>" + s(8) + " "
		t.tail = "</body></record>\n"
		for r := 2; r <= 4; r++ {
			t.tail += fmt.Sprintf("<record id=\"%d\"><title>%s</title><body>%s</body></record>\n", r, s(3), s(8))
		}
		t.tail += "</dataset>\n"
	}
	t.path = fmt.Sprintf("/d%d/%s", j%ingestFolders, t.name)
	return t
}

// marker is the word unique to client c's cycle k.
func (w *ingestWorkload) marker(c, k int) string {
	return fmt.Sprintf("mk%sc%dk%d", w.seedTag, c, k)
}

func (w *ingestWorkload) files(c, k int) map[string]string {
	m := w.marker(c, k)
	files := make(map[string]string, w.nFiles)
	for _, t := range w.templates[c] {
		files[t.path] = t.head + m + t.tail
	}
	return files
}

func (w *ingestWorkload) setup(b *bench, c *client) error {
	for i := 0; i < ingestTenants; i++ {
		ds := sourceRequest{Type: "dataset", Scale: w.scale, Seed: w.dataSeed, Sync: true}
		if _, err := c.do(kindWrite, "POST", "/v1/t/"+ingestTenant(i)+"/sources", ds, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingestWorkload) setupMirror(b *bench) error {
	for i := 0; i < ingestTenants; i++ {
		sys, err := b.mir.create(ingestTenant(i))
		if err != nil {
			return err
		}
		if err := sys.AddDataset(idm.GenerateDataset(w.datasetConfig())); err != nil {
			return err
		}
		if _, err := sys.Index(); err != nil {
			return err
		}
	}
	return nil
}

// markerQuery asks for cycle k's marker and the previous cycle's, whose
// source was deleted (from this tenant or, at the start of a round,
// from another): the answer must be exactly cycle k's files.
func (w *ingestWorkload) markerQuery(c, k int) string {
	if k == 0 {
		return fmt.Sprintf(`[class="file" and "%s"]`, w.marker(c, k))
	}
	return fmt.Sprintf(`[class="file" and ("%s" or "%s")]`, w.marker(c, k), w.marker(c, k-1))
}

func (w *ingestWorkload) loop(b *bench, c *client, deadline time.Time) {
	for k := 0; k%roundCycles != 0 || time.Now().Before(deadline); k++ {
		tenant := roundTenant(c.id, k)
		base := "/v1/t/" + tenant
		w.mu.Lock()
		w.used[tenant] = true
		w.mu.Unlock()
		start := time.Now()
		src := fmt.Sprintf("s%dk%d", c.id, k)
		files := w.files(c.id, k)
		if err := c.call(kindWrite, "POST", base+"/sources", sourceRequest{ID: src, Files: files, Sync: true}, nil,
			func(req *span) error { return b.mir.replayAdd(c.tr, req, tenant, src, files) }); err != nil {
			continue
		}
		q := w.markerQuery(c.id, k)
		var resp queryResponse
		if err := c.call(kindQuery, "POST", base+"/query", queryRequest{Q: q, Limit: w.nFiles}, &resp,
			func(req *span) error { return b.mir.replayQuery(c.tr, req, tenant, q) }); err == nil {
			if msg := w.check(c.id, src, &resp); msg != "" {
				c.rec.fail("tenant %s query %s: %s", tenant, q, msg)
			}
		}
		if err := c.call(kindWrite, "DELETE", base+"/sources/"+src, nil, nil, func(req *span) error {
			return b.mir.replayWrite(c.tr, req, tenant, spanRemove, func(sys *idm.System) error { return sys.RemoveSource(src) })
		}); err != nil {
			continue
		}
		// Each round checkpoints its tenant at its second cycle, so that
		// even the short traced phase, where each cycle also pays its
		// replay, checkpoints.
		if k%roundCycles == 1 {
			if err := c.call(kindWrite, "POST", base+"/checkpoint", nil, nil, func(req *span) error {
				return b.mir.replayWrite(c.tr, req, tenant, spanCheckpoint, (*idm.System).Checkpoint)
			}); err != nil {
				continue
			}
		}
		c.rec.observe(kindOp, time.Since(start))
	}
}

// check compares a marker-query answer with the files just added.
func (w *ingestWorkload) check(c int, src string, resp *queryResponse) string {
	if resp.Total != w.nFiles || len(resp.Rows) != w.nFiles {
		return fmt.Sprintf("%d rows (total %d), want the %d files just added", len(resp.Rows), resp.Total, w.nFiles)
	}
	want := make(map[string]bool, w.nFiles)
	for _, t := range w.templates[c] {
		want[t.name] = true
	}
	for _, row := range resp.Rows {
		if len(row) != 1 || row[0].Source != src || !want[row[0].Name] {
			return fmt.Sprintf("unexpected row %+v", row)
		}
		delete(want, row[0].Name)
	}
	return ""
}
