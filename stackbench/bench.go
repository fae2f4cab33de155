package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/server"
)

// clients is the closed-loop client count of every workload.
const clients = 1

// workload is one traffic mix driven through the daemon.
type workload interface {
	// prepare builds the seeded inputs and any reference answers. It
	// runs once, before set-up, and is not timed.
	prepare(b *bench) error
	// maxOpen is the daemon's open-tenant cap.
	maxOpen() int
	// setup creates the workload's tenants through a fresh daemon; its
	// time is setup_s.
	setup(b *bench, c *client) error
	// setupMirror creates the same tenants through the library under
	// the mirror root (traced runs only).
	setupMirror(b *bench) error
	// begin resets shared state, so every phase drives the same
	// operation sequence.
	begin()
	// loop runs client c's closed loop until the deadline passes (on
	// ingest, until the round in progress then ends).
	loop(b *bench, c *client, deadline time.Time)
	// tenantNames lists the daemon's tenants.
	tenantNames() []string
	// stored names the tenants whose on-disk bytes store_amp counts at
	// the end of a phase, and the source content registered in them.
	stored() (tenants []string, content int64)
	// scales lists the dataset scales of the workload's tenants.
	scales() []float64
}

// daemon is one in-process imemexd on a loopback listener, with its
// default backend (wal) and fsync policy (on-commit).
type daemon struct {
	srv      *server.Server
	root     string
	base     string
	shutdown func()
}

func startDaemon(root string, maxOpen int) (*daemon, error) {
	srv, err := server.New(server.Config{Root: root, MaxOpenTenants: maxOpen})
	if err != nil {
		return nil, err
	}
	addr, shutdown, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, root: root, base: "http://" + addr, shutdown: shutdown}, nil
}

// counter reads one of the daemon's srv_* counters.
func (d *daemon) counter(name string) int64 { return d.srv.Metrics().Counter(name).Value() }

// bench is one run of one workload.
type bench struct {
	opt options
	// dir holds this run's daemon and mirror roots; removed at the end.
	dir string
	d   *daemon
	mir *mirror // nil when untraced
}

// setup starts a fresh daemon under a new root and runs the workload's
// set-up against it, returning the daemon and the time both took.
func (b *bench) setup(w workload, rep int) (*daemon, time.Duration, error) {
	root := filepath.Join(b.dir, fmt.Sprintf("daemon%d", rep))
	runtime.GC()
	start := time.Now()
	d, err := startDaemon(root, w.maxOpen())
	if err != nil {
		return nil, 0, err
	}
	c := newClient(-1, d.base, time.Now())
	err = w.setup(b, c)
	took := time.Since(start)
	c.close()
	if err == nil && c.rec.failed > 0 {
		err = fmt.Errorf("set-up request failed: %v", c.rec.errs)
	}
	if err != nil {
		d.shutdown()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, took, nil
}

// resetup repeats the set-up on fresh roots after the timed phases,
// so that what a set-up leaves in the process cannot weigh on them.
func (b *bench) resetup(w workload, reps int) ([]time.Duration, error) {
	var times []time.Duration
	for rep := 1; rep < reps; rep++ {
		d, took, err := b.setup(w, rep)
		if err != nil {
			return nil, err
		}
		times = append(times, took)
		d.shutdown()
		if err := os.RemoveAll(d.root); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// phase is the outcome of one timed phase.
type phase struct {
	rec     *recorder
	elapsed time.Duration
	alloc   uint64
	// liveHeap samples the heap the last GC found live, in MB.
	liveHeap []float64
	// Deltas of the daemon's srv_* counters over the phase.
	srvRequests, srvOpens, srvThrottled int64
}

func (p *phase) reqPerSec() float64 {
	return float64(p.rec.attempted-p.rec.failed) / p.elapsed.Seconds()
}

// runPhase drives the workload with the closed-loop clients for the
// configured time. With a tracer, every request is traced and
// replayed against the mirror.
func (b *bench) runPhase(w workload, tr *tracer) *phase {
	w.begin()
	start := time.Now()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(i, b.d.base, start)
		cs[i].tr = tr
	}
	req0 := b.d.counter("srv_requests_total")
	open0 := b.d.counter("srv_tenant_opens_total")
	thr0 := b.d.counter("srv_throttled_total")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stop := make(chan struct{})
	heap := make(chan []float64)
	go sampleLiveHeap(stop, heap)
	deadline := start.Add(time.Duration(b.opt.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			w.loop(b, c, deadline)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	close(stop)
	p := &phase{rec: newRecorder(start), elapsed: elapsed, alloc: m1.TotalAlloc - m0.TotalAlloc, liveHeap: <-heap}
	for _, c := range cs {
		p.rec.merge(c.rec)
		c.close()
	}
	p.srvRequests = b.d.counter("srv_requests_total") - req0
	p.srvOpens = b.d.counter("srv_tenant_opens_total") - open0
	p.srvThrottled = b.d.counter("srv_throttled_total") - thr0
	return p
}

// heapSampleEvery is the live-heap sampling period.
const heapSampleEvery = 50 * time.Millisecond

// sampleLiveHeap reads the heap the most recent GC cycle marked live,
// every heapSampleEvery until stop closes, then sends the samples (MB).
// Sampling forces no collection, so it does not disturb the phase.
func sampleLiveHeap(stop <-chan struct{}, out chan<- []float64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var mbs []float64
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out <- mbs
			return
		case <-tick.C:
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				mbs = append(mbs, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}
}

// checkpointAll checkpoints every tenant through the daemon.
func (b *bench) checkpointAll(w workload) error {
	c := newClient(-1, b.d.base, time.Now())
	defer c.close()
	for _, t := range w.tenantNames() {
		if _, err := c.do(kindWrite, "POST", "/v1/t/"+t+"/checkpoint", nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// tenantBytes sums the on-disk bytes of the named tenants of d.
func (d *daemon) tenantBytes(tenants []string) (int64, error) {
	var n int64
	for _, t := range tenants {
		b, err := diskBytes(filepath.Join(d.root, t))
		if err != nil {
			return 0, err
		}
		n += b
	}
	return n, nil
}

// diskBytes sums the sizes of the regular files under root.
func diskBytes(root string) (int64, error) {
	var n int64
	err := filepath.WalkDir(root, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
