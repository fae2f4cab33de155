package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Wire types of the imemexd API, as a client sees them.
type queryRequest struct {
	Q      string `json:"q"`
	Cursor string `json:"cursor,omitempty"`
	Limit  int    `json:"limit,omitempty"`
}

type itemJSON struct {
	OID    uint64 `json:"oid"`
	Name   string `json:"name"`
	Class  string `json:"class"`
	Source string `json:"source"`
	Path   string `json:"path"`
	URI    string `json:"uri"`
}

type queryResponse struct {
	Columns    []string     `json:"columns"`
	Rows       [][]itemJSON `json:"rows"`
	Total      int          `json:"total"`
	NextCursor string       `json:"next_cursor,omitempty"`
}

type sourceRequest struct {
	ID    string            `json:"id"`
	Type  string            `json:"type,omitempty"`
	Files map[string]string `json:"files,omitempty"`
	Scale float64           `json:"scale,omitempty"`
	Seed  int64             `json:"seed,omitempty"`
	Sync  bool              `json:"sync,omitempty"`
}

// Request kinds, each with its own latency list.
const (
	kindQuery = "query"
	kindWrite = "write"
	kindOp    = "op"
)

// maxErrors bounds the failure messages a recorder keeps.
const maxErrors = 5

// recorder is one client's tally for one phase. Only its client
// goroutine touches it; the phase merges recorders after the clients
// have stopped.
type recorder struct {
	lat map[string]samples
	// ends holds, parallel to lat, when each sample completed, as an
	// offset from t0.
	ends      map[string][]time.Duration
	t0        time.Time
	attempted int64
	failed    int64
	respBytes int64
	errs      []string
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{lat: make(map[string]samples), ends: make(map[string][]time.Duration), t0: t0}
}

func (r *recorder) observe(kind string, d time.Duration) {
	r.lat[kind] = append(r.lat[kind], d)
	r.ends[kind] = append(r.ends[kind], time.Since(r.t0))
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < maxErrors {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) merge(o *recorder) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
		r.ends[k] = append(r.ends[k], o.ends[k]...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.respBytes += o.respBytes
	for _, e := range o.errs {
		if len(r.errs) < maxErrors {
			r.errs = append(r.errs, e)
		}
	}
}

// client is one closed-loop client: one keep-alive connection, one
// request in flight at a time.
type client struct {
	id   int
	base string
	hc   *http.Client
	rec  *recorder
	tr   *tracer // nil when untraced
}

func newClient(id int, base string, t0 time.Time) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{id: id, base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, rec: newRecorder(t0)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out. Every call
// counts as attempted; transport errors, non-200 answers (including
// 429 refusals) and undecodable bodies count as failed. Latency is
// recorded under kind for successful calls only. When tracing, the
// request becomes a root span, returned for the replay to hang its
// children on.
func (c *client) do(kind, method, path string, body, out any) (*span, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	var sp *span
	if c.tr != nil {
		sp = c.tr.begin(c.tr.newReq(), nil, "server "+method+" "+route(path))
	}
	c.rec.attempted++
	start := time.Now()
	data, status, err := c.roundTrip(method, path, rd)
	d := time.Since(start)
	if sp != nil {
		c.tr.finish(sp)
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(data))
	}
	if err == nil && out != nil {
		if uerr := json.Unmarshal(data, out); uerr != nil {
			err = fmt.Errorf("decode answer: %v", uerr)
		}
	}
	if err != nil {
		c.rec.fail("%s %s: %v", method, path, err)
		return sp, err
	}
	c.rec.respBytes += int64(len(data))
	c.rec.observe(kind, d)
	return sp, nil
}

// call sends one request of a timed phase. On a traced client it then
// replays the operation against the mirror, holding the tracer's
// operation lock across both; a failed replay counts as a failure.
func (c *client) call(kind, method, path string, body, out any, replay func(req *span) error) error {
	if c.tr != nil {
		c.tr.op.Lock()
		defer c.tr.op.Unlock()
	}
	sp, err := c.do(kind, method, path, body, out)
	if err != nil || c.tr == nil {
		return err
	}
	if err := replay(sp); err != nil {
		c.rec.fail("replay %s %s: %v", method, path, err)
		return err
	}
	return nil
}

func (c *client) roundTrip(method, path string, body io.Reader) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// route names a request path without its tenant and source ids, so
// spans of one endpoint share a name.
func route(path string) string {
	// Paths are /v1/t/<tenant>/<endpoint>[/<id>].
	if parts := strings.Split(path, "/"); len(parts) >= 5 {
		return "/" + parts[4]
	}
	return path
}
