package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sbgp"
	"sbgp/internal/dist"
	"sbgp/internal/service"
)

// The sbgpd -dist and sbgpworker defaults the dist-jobs workload runs
// with.
const (
	leaseShards = 16
	leaseTTL    = 15 * time.Second
	workerPoll  = 500 * time.Millisecond
	distWorkers = 2
	jobTimeout  = 120 * time.Second
)

// daemon is an in-process sbgpd: a service.Server on a fresh data
// directory, served by its Handler on a loopback listener — in dist
// mode with a dist.Coordinator as its Distributor, mounted at
// /dist/v1/ beside the service API, and two dist.Workers (Workers: 1
// each) connected over loopback.
type daemon struct {
	dir     string
	srv     *service.Server
	coord   *dist.Coordinator
	hs      *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	workers []*dist.Worker
	// probes time each worker's open path, evaluation and HTTP calls
	// (instrumented daemons only).
	probes []*workerProbe
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startDaemon opens a daemon in a new data directory under the run's
// work directory. instrument replaces each worker's Open with a timed
// replica of the default open path and its HTTP client with a timing
// round tripper; uninstrumented workers run the library defaults.
func startDaemon(c *config, distMode, instrument bool, tr *tracer) (*daemon, error) {
	dir, err := os.MkdirTemp(c.workDir, "sbgpd-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan struct{})}
	var opts service.Options
	if distMode {
		d.coord = dist.NewCoordinator(dist.Options{LeaseTTL: leaseTTL, LeaseShards: leaseShards})
		opts.Distributor = d.coord
	}
	d.srv, err = service.OpenOptions(filepath.Join(dir, "data"), opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	handler := d.srv.Handler()
	if d.coord != nil {
		mux := http.NewServeMux()
		mux.Handle("/dist/v1/", d.coord.Handler())
		mux.Handle("/", handler)
		handler = mux
	}
	d.hs = &http.Server{Handler: handler}
	go func() {
		d.hs.Serve(ln)
		close(d.served)
	}()
	d.base = "http://" + ln.Addr().String()
	// A job that has not finished within jobTimeout counts as failed.
	d.client = &http.Client{Transport: &http.Transport{}, Timeout: jobTimeout}
	if distMode {
		ctx, cancel := context.WithCancel(context.Background())
		d.cancel = cancel
		for i := 0; i < distWorkers; i++ {
			w := &dist.Worker{
				Base:    d.base,
				ID:      fmt.Sprintf("worker-%d", i),
				Workers: 1,
				Poll:    workerPoll,
				Client:  &http.Client{Transport: &http.Transport{}},
			}
			if instrument {
				p := &workerProbe{id: w.ID, workers: w.Workers, tr: tr}
				w.Open = p.open
				w.Client = &http.Client{Transport: &timingTransport{base: w.Client.Transport, probe: p}}
				d.probes = append(d.probes, p)
			}
			d.workers = append(d.workers, w)
			d.wg.Add(1)
			go func() {
				defer d.wg.Done()
				w.Run(ctx)
			}()
		}
	}
	return d, nil
}

// stop shuts the daemon down and waits for every goroutine it started.
func (d *daemon) stop() {
	if d.cancel != nil {
		d.cancel()
	}
	d.wg.Wait()
	for _, w := range d.workers {
		w.Client.Transport.(interface{ CloseIdleConnections() }).CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	d.hs.Shutdown(ctx)
	cancel()
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// jobRun is one job's trip through the daemon, as its client saw it.
type jobRun struct {
	spec  *sbgp.JobSpec
	cold  bool
	id    string
	final service.Job
	data  []byte

	start, submitted, notified, resultStart, end time.Time
	events                                       int
}

func (r *jobRun) latency() time.Duration { return r.end.Sub(r.start) }

// runJob submits a spec with POST /jobs, follows GET /jobs/{id}/events
// to the terminal snapshot, and fetches GET /jobs/{id}/result. The
// latency runs from the POST to the last byte of the result.
func (d *daemon) runJob(spec *sbgp.JobSpec, cold bool, tr *tracer) (*jobRun, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(service.SubmitRequest{Spec: raw})
	if err != nil {
		return nil, err
	}
	r := &jobRun{spec: spec, cold: cold}
	r.start = time.Now()
	root := tr.start("service.job", 0, "")
	sp := tr.start("service.submit", root, "")
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sub service.Job
	err = decodeResponse(resp, http.StatusCreated, &sub)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	r.id = sub.ID
	r.submitted = time.Now()
	tr.setJob(root, r.id)
	tr.setJob(sp, r.id)

	sp = tr.start("service.events", root, r.id)
	resp, err = d.client.Get(d.base + "/jobs/" + r.id + "/events")
	if err != nil {
		return nil, err
	}
	err = r.follow(resp)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}

	sp = tr.start("service.result", root, r.id)
	r.resultStart = time.Now()
	resp, err = d.client.Get(d.base + "/jobs/" + r.id + "/result")
	if err != nil {
		return nil, err
	}
	r.data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	tr.end(sp)
	tr.end(root)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(r.data)))
	}
	if err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	tr.record("service.queue", root, r.id, r.final.Submitted, r.final.Started)
	tr.record("service.run", root, r.id, r.final.Started, r.final.Finished)
	return r, nil
}

// follow reads the SSE stream until the terminal snapshot.
func (r *jobRun) follow(resp *http.Response) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var j service.Job
		if err := json.Unmarshal([]byte(line), &j); err != nil {
			return err
		}
		r.events++
		if j.State.Terminal() {
			r.notified = time.Now()
			r.final = j
			if j.State != service.StateDone {
				return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
			}
			io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream ended before a terminal snapshot")
}

func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return json.Unmarshal(data, v)
}

// workerProbe records one dist worker's activity: its open path,
// shard-plan and evaluation calls, and every HTTP call it makes.
type workerProbe struct {
	id      string
	workers int
	tr      *tracer

	mu    sync.Mutex
	ivals []interval
}

// interval is one timed worker activity; kind is "open", "plan",
// "eval", or "rtt.<endpoint>".
type interval struct {
	kind       string
	start, end time.Time
}

func (p *workerProbe) add(kind string, start, end time.Time) {
	p.mu.Lock()
	p.ivals = append(p.ivals, interval{kind, start, end})
	p.mu.Unlock()
	p.tr.record("dist."+kind, 0, p.id, start, end)
}

func (p *workerProbe) snapshot() []interval {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]interval(nil), p.ivals...)
}

// open repeats dist.Worker's default open path with public calls only
// — ReadJobSpec, FromJobSpec (which regenerates the topology) and
// Simulate — timing the whole call, and returns an evaluator that
// evaluates leases with one EnginePool per worker.
func (p *workerProbe) open(ctx context.Context, raw json.RawMessage) (dist.Evaluator, error) {
	start := time.Now()
	js, err := sbgp.ReadJobSpec(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	opts := []sbgp.Option{sbgp.WithContext(ctx)}
	if p.workers > 0 {
		opts = append(opts, sbgp.WithWorkers(p.workers))
	}
	sc, err := sbgp.FromJobSpec(js, opts...)
	if err != nil {
		return nil, err
	}
	sim, err := sc.Simulate()
	if err != nil {
		return nil, err
	}
	p.add("open", start, time.Now())
	return &timedEvaluator{sim: sim, pool: sbgp.NewEnginePool(), probe: p}, nil
}

// timedEvaluator is the default spec-driven evaluator with each call
// timed.
type timedEvaluator struct {
	sim    *sbgp.Simulation
	pool   *sbgp.EnginePool
	layout *sbgp.ShardLayout
	probe  *workerProbe
}

func (e *timedEvaluator) ShardPlan() (*sbgp.ShardLayout, error) {
	if e.layout == nil {
		start := time.Now()
		l, _, err := e.sim.JobShardPlan()
		if err != nil {
			return nil, err
		}
		e.probe.add("plan", start, time.Now())
		e.layout = l
	}
	return e.layout, nil
}

func (e *timedEvaluator) EvaluateShards(r sbgp.ShardRange, sink func(*sbgp.ShardPartial) error) error {
	l, err := e.ShardPlan()
	if err != nil {
		return err
	}
	start := time.Now()
	defer e.pool.Release()
	err = e.sim.EvaluateJobShards(l, r, sbgp.ShardRangeOptions{Sink: sink, Pool: e.pool})
	e.probe.add("eval", start, time.Now())
	return err
}

// timingTransport is the http.RoundTripper set in Worker.Client: it
// times every protocol call, from the request to the response headers.
type timingTransport struct {
	base  http.RoundTripper
	probe *workerProbe
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.probe.add("rtt."+path.Base(req.URL.Path), start, time.Now())
	return resp, err
}

func (t *timingTransport) CloseIdleConnections() {
	t.base.(interface{ CloseIdleConnections() }).CloseIdleConnections()
}
