package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	idm "repro"
)

// The tenant-churn workload: tenants of mixed size, more than the
// daemon's open-tenant cap, visited in an order that never revisits a
// recently visited tenant, so every visit opens a cold tenant (storage
// recovery plus index rebuild) and asks one selective query page.
const (
	churnCap = 4
	// churnQuery selects a tenant's marker files: each tenant holds a
	// "mark" source whose files carry the word tenantmark.
	churnQuery = `[class="file" and "tenantmark"]`
	// churnSeq is the length of the visit order.
	churnSeq = 1 << 16
)

type churnWorkload struct {
	n                  int
	minScale, maxScale float64

	tenants []*churnTenant
	seq     []int
	next    atomic.Int64
	content int64
}

type churnTenant struct {
	name     string
	scale    float64
	dataSeed int64
	files    map[string]string // marker source: path → content
	marks    map[string]bool   // marker file names
	// seedCount is the marker query's row count right after set-up.
	seedCount int
}

func (w *churnWorkload) maxOpen() int              { return churnCap }
func (w *churnWorkload) stored() ([]string, int64) { return w.tenantNames(), w.content }
func (w *churnWorkload) begin()                    { w.next.Store(0) }

func (w *churnWorkload) scales() []float64 {
	out := make([]float64, len(w.tenants))
	for i, t := range w.tenants {
		out[i] = t.scale
	}
	return out
}

func (w *churnWorkload) tenantNames() []string {
	names := make([]string, len(w.tenants))
	for i, t := range w.tenants {
		names[i] = t.name
	}
	return names
}

func (t *churnTenant) datasetConfig() idm.DatasetConfig {
	return idm.DatasetConfig{Scale: t.scale, Seed: t.dataSeed}
}

// prepare sizes the tenants (scales spread evenly over the range),
// writes each tenant's marker files from --seed, and draws the visit
// order. No tenant is visited again within cap+clients visits, so
// neither the daemon's LRU nor the request in flight on the other
// client can still hold it open, and every tenant is visited equally
// often.
func (w *churnWorkload) prepare(b *bench) error {
	avoid := churnCap + clients
	if w.n < 2*avoid {
		return fmt.Errorf("tenant-churn needs at least %d tenants, has %d", 2*avoid, w.n)
	}
	rng := rand.New(rand.NewSource(b.opt.seed))
	w.tenants = make([]*churnTenant, w.n)
	w.content = 0
	for i := range w.tenants {
		t := &churnTenant{
			name:     fmt.Sprintf("c%02d", i),
			scale:    w.minScale + (w.maxScale-w.minScale)*float64(i)/float64(w.n-1),
			dataSeed: int64(100 + i),
			files:    make(map[string]string),
			marks:    make(map[string]bool),
		}
		for j := 0; j < 3+(i*5)%8; j++ {
			name := fmt.Sprintf("%s-%d.txt", t.name, j)
			t.files["/mark/"+name] = sentence(rng, 30) + " tenantmark " + t.name + " " + sentence(rng, 30) + "\n"
			t.marks[name] = true
		}
		info := idm.GenerateDataset(t.datasetConfig()).Info
		w.content += info.FSBytes + info.MailBytes
		for _, c := range t.files {
			w.content += int64(len(c))
		}
		w.tenants[i] = t
	}
	// The visit order is a series of rounds, each visiting every tenant
	// once: first, in random order, the tenants that were not among the
	// last `avoid` visits of the previous round, then those that were.
	w.seq = w.seq[:0]
	last := rng.Perm(w.n)
	for len(w.seq) < churnSeq {
		fresh, recent := last[:w.n-avoid], last[w.n-avoid:]
		round := make([]int, 0, w.n)
		for _, i := range rng.Perm(len(fresh)) {
			round = append(round, fresh[i])
		}
		for _, i := range rng.Perm(len(recent)) {
			round = append(round, recent[i])
		}
		w.seq = append(w.seq, round...)
		last = round
	}
	return nil
}

// setup creates every tenant through the daemon (dataset plus marker
// source, one sync) and records its marker query's seed-time count.
func (w *churnWorkload) setup(b *bench, c *client) error {
	for _, t := range w.tenants {
		base := "/v1/t/" + t.name
		ds := sourceRequest{Type: "dataset", Scale: t.scale, Seed: t.dataSeed}
		if _, err := c.do(kindWrite, "POST", base+"/sources", ds, nil); err != nil {
			return err
		}
		if _, err := c.do(kindWrite, "POST", base+"/sources", sourceRequest{ID: "mark", Files: t.files, Sync: true}, nil); err != nil {
			return err
		}
		var resp queryResponse
		if _, err := c.do(kindQuery, "POST", base+"/query", queryRequest{Q: churnQuery, Limit: pageRows}, &resp); err != nil {
			return err
		}
		t.seedCount = resp.Total
		if msg := t.check(&resp); msg != "" {
			return fmt.Errorf("tenant %s after set-up: %s", t.name, msg)
		}
	}
	return nil
}

func (w *churnWorkload) setupMirror(b *bench) error {
	for _, t := range w.tenants {
		sys, err := b.mir.create(t.name)
		if err != nil {
			return err
		}
		if err := sys.AddDataset(idm.GenerateDataset(t.datasetConfig())); err != nil {
			return err
		}
		if err := sys.AddFileSystem("mark", buildFS(t.files)); err != nil {
			return err
		}
		if _, err := sys.Index(); err != nil {
			return err
		}
	}
	// Start the timed phases with every mirror tenant cold, as the
	// visit order expects of the daemon's.
	b.mir.closeAll()
	return nil
}

// loop visits tenants in the shared seeded order until the deadline.
func (w *churnWorkload) loop(b *bench, c *client, deadline time.Time) {
	for time.Now().Before(deadline) {
		t := w.tenants[w.seq[int(w.next.Add(1)-1)%len(w.seq)]]
		start := time.Now()
		var resp queryResponse
		err := c.call(kindQuery, "POST", "/v1/t/"+t.name+"/query", queryRequest{Q: churnQuery, Limit: pageRows}, &resp,
			func(req *span) error { return b.mir.replayQuery(c.tr, req, t.name, churnQuery) })
		if err != nil {
			continue
		}
		if msg := t.check(&resp); msg != "" {
			c.rec.fail("tenant %s: %s", t.name, msg)
			continue
		}
		c.rec.observe(kindOp, time.Since(start))
	}
}

// check compares a marker-query answer with the tenant's seed-time
// count and its own marker files; a file of another tenant is a leak.
func (t *churnTenant) check(resp *queryResponse) string {
	if resp.Total != len(t.marks) || resp.Total != t.seedCount {
		return fmt.Sprintf("total %d, seed-time count %d, marker files %d", resp.Total, t.seedCount, len(t.marks))
	}
	if len(resp.Rows) != resp.Total {
		return fmt.Sprintf("%d rows for total %d", len(resp.Rows), resp.Total)
	}
	seen := make(map[string]bool)
	for _, row := range resp.Rows {
		if len(row) != 1 {
			return fmt.Sprintf("row with %d columns", len(row))
		}
		name := row[0].Name
		if !t.marks[name] {
			if owner, _, ok := strings.Cut(name, "-"); ok && owner != t.name {
				return fmt.Sprintf("leaked marker file %q of tenant %s", name, owner)
			}
			return fmt.Sprintf("unexpected row %q", name)
		}
		if seen[name] {
			return fmt.Sprintf("duplicate row %q", name)
		}
		seen[name] = true
	}
	return ""
}

// buildFS builds an in-memory file system from path → content, the way
// imemexd builds an inline fs source.
func buildFS(files map[string]string) *idm.FS {
	fs := idm.NewFileSystem()
	for path, content := range files {
		if i := strings.LastIndex(path, "/"); i > 0 {
			fs.MkdirAll(path[:i])
		}
		fs.WriteFile(path, []byte(content))
	}
	return fs
}

// vocabulary is the word list of generated file text.
var vocabulary = strings.Fields(`data model query system file folder email
stream index graph view resource personal information management search
structure content semantic schema relational document section figure
evaluation result time approach paper work user desktop storage processing
language engine operator plan optimizer catalog replica server client
protocol network cache memory disk benchmark experiment dataset workload
latency throughput architecture layer module plugin converter wrapper`)

// sentence returns n words drawn from the vocabulary.
func sentence(rng *rand.Rand, n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = vocabulary[rng.Intn(len(vocabulary))]
	}
	return strings.Join(ws, " ")
}
