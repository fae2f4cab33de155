package main

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"time"

	idm "repro"
	"repro/internal/experiments"
	"repro/internal/iql"
	"repro/internal/vfs"
)

// The search workload: one hot tenant holding the synthetic paper
// dataspace, opened and warmed before timing. Each client session
// draws a query from a skewed pool larger than the facade's 256-entry
// result cache and walks up to maxPages pages through cursors.
const (
	searchTenant = "search"
	pageRows     = 100
	maxPages     = 10
	// poolSeed fixes which texts form the pool and how hot each one is:
	// the pool belongs to the dataset, and --seed drives the sequence
	// of sessions drawn from it.
	poolSeed = 42
	// Query popularity is Zipf-like: rank k has weight (zipfV+k)^-zipfS.
	zipfS = 1.1
	zipfV = 8
	// deckSize is the number of sessions in one client's deck.
	deckSize = 2000
)

type searchWorkload struct {
	scale     float64
	dataSeed  int64
	nKeywords int
	nPaths    int

	pool    []string // by popularity rank
	ref     []refAnswer
	names   map[uint64]string // OID → name in the reference System
	content int64
}

// refAnswer is the reference System's answer to one pool query: its
// row count and the OID keys of the rows a full walk returns, in key
// order.
type refAnswer struct {
	total int
	arity int
	keys  []uint64 // flattened, arity per row
}

func (w *searchWorkload) maxOpen() int          { return 4 }
func (w *searchWorkload) tenantNames() []string { return []string{searchTenant} }
func (w *searchWorkload) stored() ([]string, int64) {
	return w.tenantNames(), w.content
}
func (w *searchWorkload) begin()            {}
func (w *searchWorkload) scales() []float64 { return []float64{w.scale} }

func (w *searchWorkload) datasetConfig() idm.DatasetConfig {
	return idm.DatasetConfig{Scale: w.scale, Seed: w.dataSeed}
}

// prepare builds the query pool from the dataset's own text and the
// reference answer of every pool query from an in-process System built
// from the same dataset. The reference is dropped afterwards; only the
// answers and the names of the views they contain are kept.
func (w *searchWorkload) prepare(b *bench) error {
	d := idm.GenerateDataset(w.datasetConfig())
	w.content = d.Info.FSBytes + d.Info.MailBytes
	w.pool = buildPool(d.FS, w.nKeywords, w.nPaths)

	ref := idm.Open(idm.Config{Parallelism: 1})
	if err := ref.AddDataset(d); err != nil {
		return err
	}
	if _, err := ref.Index(); err != nil {
		return err
	}
	eng := iql.NewEngine(ref.Manager(), iql.Options{Parallelism: 1, Planner: iql.PlannerAdaptive})
	w.names = make(map[uint64]string)
	w.ref = make([]refAnswer, len(w.pool))
	for i, q := range w.pool {
		r, err := eng.Query(q)
		if err != nil {
			return fmt.Errorf("reference %q: %w", q, err)
		}
		a := refAnswer{total: len(r.Rows), arity: len(r.Columns)}
		rows := append([][]idm.OID(nil), r.Rows...)
		sort.Slice(rows, func(i, j int) bool { return lessKey(rows[i], rows[j]) })
		if len(rows) > maxPages*pageRows {
			rows = rows[:maxPages*pageRows]
		}
		for _, row := range rows {
			for _, oid := range row {
				a.keys = append(a.keys, uint64(oid))
				if _, ok := w.names[uint64(oid)]; !ok {
					e, err := ref.Manager().Entry(oid)
					if err != nil {
						return fmt.Errorf("reference %q: %w", q, err)
					}
					w.names[uint64(oid)] = e.Name
				}
			}
		}
		w.ref[i] = a
	}
	return closeSystem(ref)
}

func lessKey(a, b []idm.OID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// nameRE is the shape of a file or folder name usable as a path step.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// buildPool returns Q1–Q8 plus keyword, phrase and path queries taken
// from the dataset's files, in popularity-rank order.
func buildPool(fsys *vfs.FS, nKeywords, nPaths int) []string {
	var names, folders []string
	var texts [][]string
	var walk func(n *vfs.Node)
	walk = func(n *vfs.Node) {
		kids, err := fsys.ListNode(n)
		if err != nil {
			return
		}
		for _, k := range kids {
			switch k.Kind() {
			case vfs.KindFolder:
				if nameRE.MatchString(k.Name()) {
					folders = append(folders, k.Name())
				}
				walk(k)
			case vfs.KindFile:
				if nameRE.MatchString(k.Name()) {
					names = append(names, k.Name())
				}
				if data, err := fsys.ReadNode(k); err == nil {
					texts = append(texts, words(string(data)))
				}
			}
		}
	}
	walk(fsys.Root())

	rng := rand.New(rand.NewSource(poolSeed))
	seen := make(map[string]bool)
	var pool []string
	add := func(q string) bool {
		if seen[q] {
			return false
		}
		seen[q] = true
		pool = append(pool, q)
		return true
	}
	for _, q := range experiments.PaperQueries() {
		add(q.IQL)
	}
	// Keywords and two-word phrases alternate; draws that repeat an
	// earlier text are retried a bounded number of times.
	for n, tries := 0, 0; n < nKeywords && tries < 100*nKeywords; tries++ {
		t := texts[rng.Intn(len(texts))]
		if len(t) < 2 {
			continue
		}
		i := rng.Intn(len(t) - 1)
		q := `"` + t[i] + `"`
		if n%2 == 1 {
			q = `"` + t[i] + " " + t[i+1] + `"`
		}
		if add(q) {
			n++
		}
	}
	for n, tries := 0, 0; n < nPaths && tries < 100*nPaths; tries++ {
		q := "//" + names[rng.Intn(len(names))]
		if n%2 == 1 {
			q = "//" + folders[rng.Intn(len(folders))] + "/*"
		}
		if add(q) {
			n++
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// wordRE matches the words a keyword query may use: letters only, so
// no text collides with iQL syntax.
var wordRE = regexp.MustCompile(`[A-Za-z]{3,}`)

func words(s string) []string {
	ws := wordRE.FindAllString(s, -1)
	for i, w := range ws {
		ws[i] = strings.ToLower(w)
	}
	return ws
}

// setup adds the dataset to the tenant with a sync, then warms the
// tenant by running every pool query once.
func (w *searchWorkload) setup(b *bench, c *client) error {
	req := sourceRequest{Type: "dataset", Scale: w.scale, Seed: w.dataSeed, Sync: true}
	if _, err := c.do(kindWrite, "POST", "/v1/t/"+searchTenant+"/sources", req, nil); err != nil {
		return err
	}
	for _, q := range w.pool {
		var resp queryResponse
		if _, err := c.do(kindQuery, "POST", "/v1/t/"+searchTenant+"/query", queryRequest{Q: q, Limit: pageRows}, &resp); err != nil {
			return err
		}
	}
	return nil
}

func (w *searchWorkload) setupMirror(b *bench) error {
	sys, err := b.mir.create(searchTenant)
	if err != nil {
		return err
	}
	if err := sys.AddDataset(idm.GenerateDataset(w.datasetConfig())); err != nil {
		return err
	}
	if _, err := sys.Index(); err != nil {
		return err
	}
	for _, q := range w.pool {
		if _, err := sys.Query(q); err != nil {
			return err
		}
	}
	return nil
}

// deck lists pool ranks for one client's sessions: every rank appears
// in proportion to its popularity weight, at least once, in an order
// shuffled by rng. Dealing from a deck instead of drawing each session
// independently keeps the query mix of a run the same across seeds;
// the seed changes only the order.
func deck(n int, rng *rand.Rand) []int {
	weights := make([]float64, n)
	sum := 0.0
	for k := range weights {
		weights[k] = math.Pow(zipfV+float64(k), -zipfS)
		sum += weights[k]
	}
	var d []int
	for k, wt := range weights {
		for c := max(1, int(math.Round(deckSize*wt/sum))); c > 0; c-- {
			d = append(d, k)
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// loop runs sessions dealt from the client's deck until the deadline.
// Each client's deck is shuffled by --seed and the client id.
func (w *searchWorkload) loop(b *bench, c *client, deadline time.Time) {
	d := deck(len(w.pool), rand.New(rand.NewSource(b.opt.seed*1000+int64(c.id))))
	for i := 0; time.Now().Before(deadline); i++ {
		qi := d[i%len(d)]
		start := time.Now()
		if w.walk(b, c, qi) {
			c.rec.observe(kindOp, time.Since(start))
		}
	}
}

// walk pages through one query's result with cursors, checking every
// page against the reference. It reports whether the walk completed.
func (w *searchWorkload) walk(b *bench, c *client, qi int) bool {
	q := w.pool[qi]
	cursor := ""
	got := 0
	for page := 0; page < maxPages; page++ {
		var resp queryResponse
		err := c.call(kindQuery, "POST", "/v1/t/"+searchTenant+"/query", queryRequest{Q: q, Cursor: cursor, Limit: pageRows}, &resp,
			func(req *span) error { return b.mir.replayQuery(c.tr, req, searchTenant, q) })
		if err != nil {
			return false
		}
		if msg := w.checkPage(qi, got, &resp); msg != "" {
			c.rec.fail("query %q page %d: %s", q, page, msg)
			return false
		}
		got += len(resp.Rows)
		if resp.NextCursor == "" {
			return true
		}
		cursor = resp.NextCursor
	}
	return true
}

// checkPage compares one page with the reference answer: the total,
// the arity, each row's OID key at its position in key order (so a
// dropped, duplicated or reordered row fails), each view's name, and
// whether a next cursor is offered exactly when rows remain.
func (w *searchWorkload) checkPage(qi, offset int, resp *queryResponse) string {
	a := w.ref[qi]
	if resp.Total != a.total {
		return fmt.Sprintf("total %d, reference %d", resp.Total, a.total)
	}
	want := pageRows
	if rest := a.total - offset; rest < want {
		want = rest
	}
	if len(resp.Rows) != want {
		return fmt.Sprintf("%d rows at offset %d, want %d", len(resp.Rows), offset, want)
	}
	for i, row := range resp.Rows {
		if len(row) != a.arity {
			return fmt.Sprintf("row %d has %d columns, want %d", offset+i, len(row), a.arity)
		}
		for j, it := range row {
			k := (offset+i)*a.arity + j
			if k >= len(a.keys) || it.OID != a.keys[k] {
				return fmt.Sprintf("row %d column %d is OID %d, not the reference's", offset+i, j, it.OID)
			}
			if it.Name != w.names[it.OID] {
				return fmt.Sprintf("OID %d named %q, reference %q", it.OID, it.Name, w.names[it.OID])
			}
		}
	}
	more := offset+len(resp.Rows) < a.total
	if more != (resp.NextCursor != "") {
		return fmt.Sprintf("next cursor %q with %d of %d rows seen", resp.NextCursor, offset+len(resp.Rows), a.total)
	}
	return ""
}
