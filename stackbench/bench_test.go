package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricListsMatchBenchmarkJSON keeps the emitted metric sets and
// BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, the benchmark emits %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark %v", names, workloadNames)
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that the summary line is correct and carries every metric with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"-tiny", "-seconds", "1", "-workload", w, "-trace", trace, "-seed", "3", "-work", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
					t.Fatalf("summary %+v; output:\n%s", s, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(s.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(s.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := s.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
				}
				for _, m := range want {
					if !strings.Contains(out.String(), w+" "+m.name+" ") {
						t.Errorf("metric %s not printed by name", m.name)
					}
				}
			})
		}
	}
}

// page builds a one-column query answer over the given OIDs.
func page(total int, next string, oids ...uint64) *queryResponse {
	r := &queryResponse{Columns: []string{"view"}, Total: total, NextCursor: next}
	for _, o := range oids {
		r.Rows = append(r.Rows, []itemJSON{{OID: o, Name: fmt.Sprintf("v%d", o)}})
	}
	return r
}

func seq(from, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(from + i)
	}
	return out
}

// TestSearchCheckerRejectsTampering feeds the search checker a correct
// two-page walk, then the same walk with a row dropped, a page repeated
// under a later cursor, a row renamed and the last cursor missing.
func TestSearchCheckerRejectsTampering(t *testing.T) {
	w := &searchWorkload{pool: []string{`"q"`}, names: map[uint64]string{}}
	keys := seq(10, 150)
	for _, k := range keys {
		w.names[k] = fmt.Sprintf("v%d", k)
	}
	w.ref = []refAnswer{{total: 150, arity: 1, keys: keys}}

	first := page(150, "c1", keys[:100]...)
	second := page(150, "", keys[100:]...)
	if msg := w.checkPage(0, 0, first); msg != "" {
		t.Fatalf("correct first page rejected: %s", msg)
	}
	if msg := w.checkPage(0, 100, second); msg != "" {
		t.Fatalf("correct second page rejected: %s", msg)
	}

	dropped := page(150, "c1", append(append([]uint64(nil), keys[:40]...), keys[41:100]...)...)
	repeated := page(150, "", keys[:50]...)
	renamed := page(150, "", keys[100:]...)
	renamed.Rows[7][0].Name = "someone else"
	noCursor := page(150, "", keys[:100]...)
	shifted := page(150, "c1", keys[1:101]...)
	for name, tc := range map[string]struct {
		offset int
		resp   *queryResponse
	}{
		"dropped row":          {0, dropped},
		"duplicated page":      {100, repeated},
		"renamed row":          {100, renamed},
		"missing cursor":       {0, noCursor},
		"page shifted one row": {0, shifted},
		"wrong total":          {100, page(151, "", keys[100:]...)},
	} {
		if msg := w.checkPage(0, tc.offset, tc.resp); msg == "" {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestChurnCheckerRejectsLeaks feeds the tenant-churn checker another
// tenant's marker file and an answer with a row dropped.
func TestChurnCheckerRejectsLeaks(t *testing.T) {
	tn := &churnTenant{name: "c01", marks: map[string]bool{"c01-0.txt": true, "c01-1.txt": true}, seedCount: 2}
	answer := func(names ...string) *queryResponse {
		r := &queryResponse{Total: len(names)}
		for _, n := range names {
			r.Rows = append(r.Rows, []itemJSON{{Name: n, Source: "mark"}})
		}
		return r
	}
	if msg := tn.check(answer("c01-0.txt", "c01-1.txt")); msg != "" {
		t.Fatalf("correct answer rejected: %s", msg)
	}
	msg := tn.check(answer("c01-0.txt", "c02-1.txt"))
	if !strings.Contains(msg, "leaked") || !strings.Contains(msg, "c02") {
		t.Errorf("leaked marker not reported as a leak: %q", msg)
	}
	if tn.check(answer("c01-0.txt")) == "" {
		t.Error("dropped row accepted")
	}
	if tn.check(answer("c01-0.txt", "c01-0.txt")) == "" {
		t.Error("duplicated row accepted")
	}
}

// TestIngestCheckerRejectsStaleRows feeds the ingest checker a row of a
// deleted source and an answer missing a file.
func TestIngestCheckerRejectsStaleRows(t *testing.T) {
	w := &ingestWorkload{nFiles: 3}
	w.templates[0] = []fileTemplate{{name: "f000.txt"}, {name: "f001.tex"}, {name: "f002.xml"}}
	answer := func(src string, names ...string) *queryResponse {
		r := &queryResponse{Total: len(names)}
		for _, n := range names {
			r.Rows = append(r.Rows, []itemJSON{{Name: n, Source: src}})
		}
		return r
	}
	if msg := w.check(0, "s0k1", answer("s0k1", "f000.txt", "f001.tex", "f002.xml")); msg != "" {
		t.Fatalf("correct answer rejected: %s", msg)
	}
	stale := answer("s0k1", "f000.txt", "f001.tex", "f002.xml")
	stale.Rows[1][0].Source = "s0k0"
	if w.check(0, "s0k1", stale) == "" {
		t.Error("row of the deleted source accepted")
	}
	if w.check(0, "s0k1", answer("s0k1", "f000.txt", "f001.tex")) == "" {
		t.Error("missing file accepted")
	}
	if w.check(0, "s0k1", answer("s0k1", "f000.txt", "f000.txt", "f002.xml")) == "" {
		t.Error("duplicated file accepted")
	}
}

// TestChurnOrderNeverRevisitsRecentTenants checks the visit order: no
// tenant within cap+clients visits of its last visit, and every tenant
// visited equally often.
func TestChurnOrderNeverRevisitsRecentTenants(t *testing.T) {
	w := &churnWorkload{n: 12, minScale: 0.001, maxScale: 0.001}
	if err := w.prepare(&bench{opt: options{seed: 5}}); err != nil {
		t.Fatal(err)
	}
	avoid := churnCap + clients
	last := make(map[int]int)
	count := make(map[int]int)
	for k, i := range w.seq {
		if p, ok := last[i]; ok && k-p <= avoid {
			t.Fatalf("tenant %d visited at %d and again at %d", i, p, k)
		}
		last[i] = k
		count[i]++
	}
	for i := 0; i < w.n; i++ {
		if count[i] != count[0] {
			t.Fatalf("visit counts differ: %v", count)
		}
	}
}

// TestIngestRoundsRotateTenants checks that ingest cycles stay on one
// tenant for a round, move on to the next tenant every round, and only
// wrap around once every tenant has had its round.
func TestIngestRoundsRotateTenants(t *testing.T) {
	seen := make(map[string]int)
	for k := 0; k < ingestTenants*roundCycles; k++ {
		tn := roundTenant(0, k)
		if k%roundCycles != 0 && tn != roundTenant(0, k-1) {
			t.Fatalf("cycle %d moved to %s within a round", k, tn)
		}
		seen[tn]++
	}
	if len(seen) != ingestTenants {
		t.Fatalf("%d tenants used, want %d: %v", len(seen), ingestTenants, seen)
	}
	if roundTenant(0, ingestTenants*roundCycles) != roundTenant(0, 0) {
		t.Error("no wrap-around to the first tenant")
	}
}
