package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sbgp"
)

// The coordinator's HTTP/JSON API, mounted under /dist/v1/. All bodies
// are strict JSON (unknown fields rejected), like every other wire
// surface in this repository:
//
//	GET  /dist/v1/job[?wait_ms=N]    → JobInfo (404 while idle)
//	POST /dist/v1/lease[?wait_ms=N]  {"worker","fingerprint"} → LeaseGrant
//	POST /dist/v1/heartbeat  {"lease_id","fingerprint"} → 204
//	POST /dist/v1/offer      {"worker","fingerprint","shards":[...]} → {"want":[...]}
//	POST /dist/v1/submit     {"worker","fingerprint","partials":[...]} → {"accepted","duplicates"}
//	GET  /dist/v1/stats      → Stats
//	GET  /dist/v1/events     → SSE stream of Stats snapshots
//
// Error mapping: ErrNoJob → 404, ErrFingerprintMismatch → 409,
// ErrUnknownLease → 410, validation failures → 400.
//
// Long-polling. wait_ms lets the coordinator hold an empty answer — the
// 404 of /job, the standby grant of /lease — for up to N milliseconds.
// It answers early as soon as there is something to say: a Subscribe
// wake-up (a job installed or uninstalled, a submit that retires a lease
// or completes the job) is followed by a fresh try, and so is the expiry
// of the earliest outstanding lease, which frees its shards. N is
// clamped to four lease TTLs (a minute at the default TTL); a wait_ms
// that is not a non-negative decimal integer is a 400 naming the value.
// Close releases every held request with its empty answer. Workers send
// their Poll as wait_ms and, after an empty answer, sleep only what is
// left of Poll (for a standby, at most its StandbyMillis).
//
// Compatibility. wait_ms is a query parameter, not a body field, so it
// passes strict decoding everywhere:
//
//	                  old coordinator                new coordinator
//	old worker        immediate answers,             no wait_ms: immediate
//	                  worker sleeps Poll/standby     answers, standby 500 ms
//	new worker        wait_ms ignored; the answer    held answers; re-asks
//	                  comes at once, so the worker   at once, or after what
//	                  sleeps the rest of Poll: one   is left of Poll when the
//	                  ask per Poll, never a spin     coordinator answers early
//
// The held standby replaced Options.Standby, which only tests set; the
// standby grant's StandbyMillis is the constant 500.

type leaseRequest struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
}

type heartbeatRequest struct {
	LeaseID     string `json:"lease_id"`
	Fingerprint string `json:"fingerprint"`
}

type offerRequest struct {
	Worker      string `json:"worker"`
	Fingerprint string `json:"fingerprint"`
	Shards      []int  `json:"shards"`
}

type offerResponse struct {
	Want []int `json:"want"`
}

type submitRequest struct {
	Worker      string               `json:"worker"`
	Fingerprint string               `json:"fingerprint"`
	Partials    []*sbgp.ShardPartial `json:"partials"`
}

type submitResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// Handler returns the coordinator's HTTP API, rooted at /dist/v1/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/v1/job", c.handleJob)
	mux.HandleFunc("POST /dist/v1/lease", c.handleLease)
	mux.HandleFunc("POST /dist/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /dist/v1/offer", c.handleOffer)
	mux.HandleFunc("POST /dist/v1/submit", c.handleSubmit)
	mux.HandleFunc("GET /dist/v1/stats", c.handleStats)
	mux.HandleFunc("GET /dist/v1/events", c.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// errorStatus maps protocol sentinels to HTTP statuses.
func errorStatus(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, ErrNoJob):
		return http.StatusNotFound
	case errors.Is(err, ErrFingerprintMismatch):
		return http.StatusConflict
	case errors.Is(err, ErrUnknownLease):
		return http.StatusGone
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
}

// decodeStrict decodes a strict-JSON request body into v. An oversized
// body maps to 413 (via errorStatus) with the cap in the message, so a
// worker shipping too-big batches learns the actual limit instead of a
// generic decode error.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return fmt.Errorf("dist: request body exceeds the %d-byte cap: %w", mbe.Limit, err)
		}
		return fmt.Errorf("dist: bad request body: %w", err)
	}
	return nil
}

// parseWait reads the optional wait_ms query parameter: how long the
// caller lets the coordinator hold an empty answer. Absent means answer
// at once; values above maxWait are clamped to it.
func (c *Coordinator) parseWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait_ms")
	if raw == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("dist: wait_ms must be a non-negative integer count of milliseconds, got %q", raw)
	}
	if limit := c.opts.maxWait(); ms > limit.Milliseconds() {
		return limit, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := c.parseWait(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var info *JobInfo
	c.await(r.Context(), wait, func() bool {
		info, err = c.JobInfo()
		return !errors.Is(err, ErrNoJob)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	wait, err := c.parseWait(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req leaseRequest
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	var grant *LeaseGrant
	c.await(r.Context(), wait, func() bool {
		grant, err = c.Lease(req.Worker, req.Fingerprint)
		return err != nil || grant.Complete || grant.LeaseID != ""
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := c.Heartbeat(req.LeaseID, req.Fingerprint); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleOffer(w http.ResponseWriter, r *http.Request) {
	var req offerRequest
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	want, err := c.Offer(req.Fingerprint, req.Shards)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, offerResponse{Want: want})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	// Partials are compact integer aggregates, and workers chunk their
	// submissions (submitBatch shards per request), so submit fits the
	// same 1 MiB cap as the control messages.
	if err := decodeStrict(w, r, 1<<20, &req); err != nil {
		writeError(w, err)
		return
	}
	accepted, duplicates, err := c.Submit(req.Worker, req.Fingerprint, req.Partials)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, submitResponse{Accepted: accepted, Duplicates: duplicates})
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Stats())
}

// handleEvents streams Stats snapshots as server-sent events on every
// ingestion change until the client disconnects, a write fails, or the
// coordinator closes. Wakeups coalesce, so a slow client sees fewer,
// fresher snapshots.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	wake, unsubscribe := c.Subscribe()
	defer unsubscribe()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	for {
		select {
		case <-r.Context().Done():
			return
		case <-c.closing:
			return
		case <-wake:
			data, err := json.Marshal(c.Stats())
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: stats\ndata: %s\n\n", data); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
	}
}
