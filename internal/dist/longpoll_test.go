package dist

// Long-polling: idle asks carry wait_ms and the coordinator holds the
// empty answer until there is work, a lease expires, the wait runs out,
// or Close. These tests pin the latency win (work starts at once even
// with a long Poll), both directions of wire compatibility (a new
// worker against a coordinator that ignores wait_ms, an old worker
// that omits it), hostile wait_ms values, and prompt shutdown.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbgp"
)

// subscribers is the number of registered wake-up channels: one per
// held ask and per attached events stream.
func (c *Coordinator) subscribers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// waitSubscribers blocks until at least n asks or streams are parked.
func waitSubscribers(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.subscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests ever parked", c.subscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdleWorkersStartNewJobAtOnce: two workers with a 10 s Poll go
// idle on an empty coordinator; a job installed afterwards must be
// picked up and finished well inside one Poll. Without long-polling
// both would sleep out their Poll after the first empty answer.
func TestIdleWorkersStartNewJobAtOnce(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sbgp.Grid { return chainedGrid(g) }
	const size = 4
	coord := NewCoordinator(Options{LeaseShards: 6})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		w := gridWorker("idle", srv.URL, mkGrid, g, size)
		w.Poll = 10 * time.Second
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = w.Run(context.Background())
		}()
	}
	waitSubscribers(t, coord, 2)

	job, _ := gridJob(t, mkGrid, g, size, "", false, nil)
	start := time.Now()
	r := <-startRun(context.Background(), coord, job)
	elapsed := time.Since(start)
	if r.err != nil {
		t.Fatal(r.err)
	}
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if elapsed > time.Second {
		t.Errorf("job installed on idle workers took %v, want under 1s with a 10s Poll", elapsed)
	}
	var flat strings.Builder
	if err := mkGrid().MustEvaluate(g).WriteJSON(&flat); err != nil {
		t.Fatal(err)
	}
	if string(resultBytes(t, r.res)) != flat.String() {
		t.Error("long-polled result diverges from flat evaluation")
	}
}

// TestSurvivorReleasesExpiredLeaseAtOnce: a worker that holds a lease
// and then vanishes strands its range until the TTL; a survivor with a
// long Poll, parked on a held standby ask, must take the range over as
// soon as the lease expires — nothing notifies on expiry, so the held
// ask must time itself to it.
func TestSurvivorReleasesExpiredLeaseAtOnce(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sbgp.Grid { return chainedGrid(g) }
	const size = 4
	const ttl = 500 * time.Millisecond
	coord := NewCoordinator(Options{LeaseShards: 6, LeaseTTL: ttl})
	job, layout := gridJob(t, mkGrid, g, size, "", false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startRun(ctx, coord, job)
	waitActive(t, coord)

	// The vanished worker: one lease, never heartbeated or submitted.
	grant, err := coord.Lease("vanished", layout.Fingerprint)
	if err != nil || grant.LeaseID == "" {
		t.Fatalf("lease = %+v, %v", grant, err)
	}
	stranded := time.Now()
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	w := gridWorker("survivor", srv.URL, mkGrid, g, size)
	w.Poll = 10 * time.Second
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if elapsed, limit := time.Since(stranded), ttl+700*time.Millisecond; elapsed > limit {
		t.Errorf("survivor finished %v after the lease was stranded, want within TTL+0.7s = %v", elapsed, limit)
	}
	if st := coord.Stats(); st.LeasesExpired != 1 {
		t.Errorf("LeasesExpired = %d, want 1 (the vanished worker's)", st.LeasesExpired)
	}
}

// TestWorkerAgainstCoordinatorWithoutLongPoll: a coordinator that
// ignores wait_ms answers every idle ask at once. The worker must then
// ask about once per Poll for a job, and honour a standby grant's
// StandbyMillis when it is shorter than Poll — never spin.
func TestWorkerAgainstCoordinatorWithoutLongPoll(t *testing.T) {
	layout := &sbgp.ShardLayout{Fingerprint: "00000000000000aa", Cells: 8, Tasks: 2, ShardSize: 4, Shards: 2}
	var jobCalls, leaseCalls atomic.Int64
	var withJob atomic.Bool
	var sawWait atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/v1/job", func(w http.ResponseWriter, r *http.Request) {
		jobCalls.Add(1)
		if r.URL.Query().Get("wait_ms") != "" {
			sawWait.Store(true)
		}
		if !withJob.Load() {
			writeError(w, ErrNoJob)
			return
		}
		writeJSON(w, http.StatusOK, JobInfo{Fingerprint: layout.Fingerprint, Cells: layout.Cells,
			Tasks: layout.Tasks, ShardSize: layout.ShardSize, Shards: layout.Shards})
	})
	mux.HandleFunc("POST /dist/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		leaseCalls.Add(1)
		writeJSON(w, http.StatusOK, LeaseGrant{StandbyMillis: 50})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	run := func(poll, d time.Duration) {
		w := &Worker{
			Base: srv.URL,
			ID:   "new",
			Poll: poll,
			Open: func(context.Context, json.RawMessage) (Evaluator, error) { return fixedPlan{layout}, nil },
		}
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		if err := w.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("worker Run = %v, want the deadline", err)
		}
	}

	// Idle: one job ask per 100 ms Poll over one second.
	run(100*time.Millisecond, time.Second)
	if n := jobCalls.Load(); n < 5 || n > 12 {
		t.Errorf("%d job asks in 1s with a 100ms Poll against an immediate 404, want about 10", n)
	}
	if !sawWait.Load() {
		t.Error("worker never sent wait_ms")
	}

	// Standby: StandbyMillis (50 ms) bounds the re-ask delay under a
	// 10 s Poll.
	withJob.Store(true)
	run(10*time.Second, 500*time.Millisecond)
	if n := leaseCalls.Load(); n < 4 || n > 12 {
		t.Errorf("%d lease asks in 0.5s against a 50ms standby, want about 10", n)
	}
}

// fixedPlan is an Evaluator with a given layout that never evaluates.
type fixedPlan struct{ l *sbgp.ShardLayout }

func (f fixedPlan) ShardPlan() (*sbgp.ShardLayout, error) { return f.l, nil }

func (f fixedPlan) EvaluateShards(sbgp.ShardRange, func(*sbgp.ShardPartial) error) error {
	return errors.New("fixedPlan evaluates nothing")
}

// request performs one HTTP request and returns status, body and duration.
func request(t *testing.T, method, url, body string) (int, string, time.Duration) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(data), time.Since(start)
}

// TestAsksWithoutWaitAnswerAtOnce pins the old-worker direction: a
// request without wait_ms (or with wait_ms=0) gets today's immediate
// answer — the 404 of an idle coordinator, the standby grant with its
// 500 ms StandbyMillis while every pending shard is leased.
func TestAsksWithoutWaitAnswerAtOnce(t *testing.T) {
	g := smallGraph()
	mkGrid := func() *sbgp.Grid { return chainedGrid(g) }
	coord := NewCoordinator(Options{LeaseShards: 1 << 20})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	for _, q := range []string{"", "?wait_ms=0"} {
		code, _, d := request(t, http.MethodGet, srv.URL+"/dist/v1/job"+q, "")
		if code != http.StatusNotFound || d > 2*time.Second {
			t.Errorf("idle /job%s = %d after %v, want an immediate 404", q, code, d)
		}
	}

	job, layout := gridJob(t, mkGrid, g, 5, "", false, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := startRun(ctx, coord, job)
	waitActive(t, coord)
	if grant, err := coord.Lease("all", layout.Fingerprint); err != nil || grant.Range.Len() != layout.Shards {
		t.Fatalf("whole-grid lease = %+v, %v", grant, err)
	}
	body := `{"worker":"old","fingerprint":"` + layout.Fingerprint + `"}`
	for _, q := range []string{"", "?wait_ms=0"} {
		code, data, d := request(t, http.MethodPost, srv.URL+"/dist/v1/lease"+q, body)
		var grant LeaseGrant
		if err := json.Unmarshal([]byte(data), &grant); err != nil || code != http.StatusOK {
			t.Fatalf("/lease%s = %d %s", q, code, data)
		}
		if grant.LeaseID != "" || grant.Complete || grant.StandbyMillis != 500 || d > 2*time.Second {
			t.Errorf("/lease%s = %+v after %v, want an immediate standby of 500ms", q, grant, d)
		}
	}
	cancel()
	<-done
}

// TestHostileWaitMs: a wait_ms that is not a non-negative decimal
// integer is a 400 naming the value; a huge one is clamped to four
// lease TTLs instead of parking the request for ages.
func TestHostileWaitMs(t *testing.T) {
	const ttl = 50 * time.Millisecond
	coord := NewCoordinator(Options{LeaseTTL: ttl})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	lease := `{"worker":"w","fingerprint":"0000000000000000"}`
	for _, v := range []string{"-1", "abc", "1e99", "99999999999999999999", "1.5", "%20"} {
		for _, ep := range []struct{ method, path, body string }{
			{http.MethodGet, "/dist/v1/job", ""},
			{http.MethodPost, "/dist/v1/lease", lease},
		} {
			code, data, _ := request(t, ep.method, srv.URL+ep.path+"?wait_ms="+v, ep.body)
			if code != http.StatusBadRequest || !strings.Contains(data, "wait_ms") {
				t.Errorf("%s?wait_ms=%s = %d %s, want a 400 naming wait_ms", ep.path, v, code, data)
			}
		}
	}
	code, data, _ := request(t, http.MethodGet, srv.URL+"/dist/v1/job?wait_ms=abc", "")
	if code != http.StatusBadRequest || !strings.Contains(data, `\"abc\"`) {
		t.Errorf("wait_ms=abc = %d %s, want the value quoted in the error", code, data)
	}

	code, _, d := request(t, http.MethodGet, srv.URL+"/dist/v1/job?wait_ms=9223372036854775807", "")
	if code != http.StatusNotFound || d < 4*ttl-10*time.Millisecond || d > 4*ttl+2*time.Second {
		t.Errorf("wait_ms=MaxInt64 = %d after %v, want a 404 after the %v cap", code, d, 4*ttl)
	}
}

// TestCloseReleasesHeldRequests mirrors the service's shutdown test:
// with an events stream and a held job ask parked, Close must release
// both promptly, so the HTTP server can shut down at once.
func TestCloseReleasesHeldRequests(t *testing.T) {
	coord := NewCoordinator(Options{})
	srv := httptest.NewServer(coord.Handler())

	done := make(chan error, 2)
	go func() {
		resp, err := http.Get(srv.URL + "/dist/v1/events")
		if err != nil {
			done <- err
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- err
	}()
	go func() {
		resp, err := http.Get(srv.URL + "/dist/v1/job?wait_ms=60000")
		if err != nil {
			done <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			err = errors.New("held job ask released with " + resp.Status + ", want 404")
		}
		done <- err
	}()
	waitSubscribers(t, coord, 2)

	start := time.Now()
	coord.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-time.After(5 * time.Second):
			t.Fatal("held request not released by Close")
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Close plus server shutdown took %v, want prompt", d)
	}
	if n := coord.subscribers(); n != 0 {
		t.Errorf("%d subscriber slots leaked after Close", n)
	}
	// Once closed, a held ask answers without waiting.
	srv = httptest.NewServer(coord.Handler())
	defer srv.Close()
	if code, _, d := request(t, http.MethodGet, srv.URL+"/dist/v1/job?wait_ms=60000", ""); code != http.StatusNotFound || d > 2*time.Second {
		t.Errorf("ask after Close = %d after %v, want an immediate 404", code, d)
	}
}
