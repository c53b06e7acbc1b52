package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tmdb/internal/faultinject"
)

const flatJoinQuery = `SELECT (xb = x.b, zc = z.c) FROM X x, Z z WHERE x.b = z.d`

// slowJoins arms a per-row delay on the hash build and probe loops, so join
// queries over the xyz sample database take hundreds of milliseconds without
// burning CPU.
func slowJoins(d time.Duration) func() {
	return faultinject.Activate(faultinject.Schedule{
		Seed: 1,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Delay, OneInN: 1, Delay: d},
			{Point: faultinject.PointHashProbe, Kind: faultinject.Delay, OneInN: 1, Delay: d},
		},
	})
}

// wantServerError asserts err is a *ServerError with the given code and HTTP
// status.
func wantServerError(t *testing.T, err error, code string, status int) *ServerError {
	t.Helper()
	se, ok := err.(*ServerError)
	if !ok {
		t.Fatalf("want *ServerError %s/%d, got %T: %v", code, status, err, err)
	}
	if se.Code != code || se.HTTPStatus != status {
		t.Fatalf("want %s/%d, got %s/%d (%s)", code, status, se.Code, se.HTTPStatus, se.Message)
	}
	return se
}

// TestTimeoutReturns408 wires a per-request timeout_ms through to the engine:
// a query slowed to ~10× its deadline must come back as a structured 408
// deadline_exceeded document, quickly, and count in /stats (with its partial
// work accounted as discarded).
func TestTimeoutReturns408(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	defer slowJoins(2 * time.Millisecond)()
	c := NewClient(hs.URL, hs.Client())

	start := time.Now()
	_, err := c.Query(flatJoinQuery, &WireOptions{Joins: "hash", TimeoutMs: 20})
	elapsed := time.Since(start)
	wantServerError(t, err, "deadline_exceeded", http.StatusRequestTimeout)
	if elapsed > time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineExceeded != 1 {
		t.Fatalf("stats deadline_exceeded = %d, want 1", st.DeadlineExceeded)
	}

	// Per-session timeouts ride on the session's options the same way.
	if _, err := c.NewSession(WireOptions{Joins: "hash", TimeoutMs: 20}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(flatJoinQuery, nil)
	wantServerError(t, err, "deadline_exceeded", http.StatusRequestTimeout)
}

// TestBudgetReturns413 maps budget breaches onto 413 budget_exceeded and
// accounts the discarded partial rows in /stats.
func TestBudgetReturns413(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())

	_, err := c.Query(flatJoinQuery, &WireOptions{Joins: "hash", MaxRows: 1})
	wantServerError(t, err, "budget_exceeded", http.StatusRequestEntityTooLarge)
	_, err = c.Query(flatJoinQuery, &WireOptions{Joins: "hash", MaxBuildBytes: 64})
	wantServerError(t, err, "budget_exceeded", http.StatusRequestEntityTooLarge)

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetExceeded != 2 {
		t.Fatalf("stats budget_exceeded = %d, want 2", st.BudgetExceeded)
	}
	if st.DiscardedRows < 1 {
		t.Fatalf("stats discarded_rows = %d, want >= 1", st.DiscardedRows)
	}
	if st.DiscardedBuildBytes < 64 {
		t.Fatalf("stats discarded_build_bytes = %d, want >= 64", st.DiscardedBuildBytes)
	}
}

// TestBadLimitOptionsRejected pins wire-level validation of the new options.
func TestBadLimitOptionsRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())
	for _, opts := range []WireOptions{
		{TimeoutMs: -1}, {MaxRows: -5}, {MaxBuildBytes: -1}, {Joins: "bogus"},
	} {
		_, err := c.Query(flatJoinQuery, &opts)
		wantServerError(t, err, "bad_options", http.StatusBadRequest)
	}
}

// TestPanicReturns500AndServerStaysUp covers both panic-isolation layers: an
// injected execution panic becomes a 500 internal document via the engine's
// typed recovery, a panic thrown straight out of a handler is caught by the
// ServeHTTP middleware, and in both cases the server keeps answering.
func TestPanicReturns500AndServerStaysUp(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())

	deactivate := faultinject.Activate(faultinject.Schedule{
		Seed: 3,
		Rules: []faultinject.Rule{
			{Point: faultinject.PointHashBuild, Kind: faultinject.Panic, OneInN: 1},
		},
	})
	_, err := c.Query(flatJoinQuery, &WireOptions{Joins: "hash"})
	deactivate()
	se := wantServerError(t, err, "internal", http.StatusInternalServerError)
	if !strings.Contains(se.Message, "request") {
		t.Fatalf("internal error must reference the request ID, got %q", se.Message)
	}

	// Handler-layer panic: the ServeHTTP recover is the backstop.
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("handler panic returned %d, want 500", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != "internal" {
		t.Fatalf("handler panic body %q, want internal error document", rec.Body)
	}

	// The server is still alive and correct.
	res, err := c.Query(flatJoinQuery, &WireOptions{Joins: "hash"})
	if err != nil {
		t.Fatalf("server did not survive the panics: %v", err)
	}
	if res.Rows == 0 {
		t.Fatal("post-panic query returned no rows")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Panics < 2 {
		t.Fatalf("stats panics = %d, want >= 2", st.Panics)
	}
}

// TestClientGoneWhileQueued is the admission-control satellite: a queued
// request whose client disconnects must release its place, be counted as
// client_gone (not queue_timeout), and leave the slot usable.
func TestClientGoneWhileQueued(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrency: 1, QueueTimeout: 5 * time.Second})

	srv.sem <- struct{}{} // occupy the only slot
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	body := strings.NewReader(`{"query":"SELECT x.b FROM X x WHERE x.b = 3"}`)
	req := httptest.NewRequest("POST", "/query", body).WithContext(gone)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("client-gone admission returned %d, want %d", rec.Code, statusClientClosedRequest)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != "client_gone" {
		t.Fatalf("client-gone body %q, want code client_gone", rec.Body)
	}
	<-srv.sem // free the slot

	c := NewClient(hs.URL, hs.Client())
	if _, err := c.Query(`SELECT x.b FROM X x WHERE x.b = 3`, nil); err != nil {
		t.Fatalf("slot not reclaimed after client_gone: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ClientGone != 1 {
		t.Fatalf("stats client_gone = %d, want 1", st.ClientGone)
	}
	if st.QueueTimeouts != 0 {
		t.Fatalf("client_gone miscounted as queue_timeout (%d)", st.QueueTimeouts)
	}
}

// TestTableDroppedReturns410 maps the typed dropped-table error onto 410.
func TestTableDroppedReturns410(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())
	if _, err := c.Prepare("q", `SELECT y.a FROM Y y WHERE y.d = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute("q", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Engine().DropTable("Y"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute("q", nil)
	wantServerError(t, err, "table_dropped", http.StatusGone)
}

// retryProbe is a handler that rejects the first fail requests per path with
// the given code, then delegates to ok.
type retryProbe struct {
	fail  int
	code  string
	seen  map[string]int
	okFor func(w http.ResponseWriter, path string)
}

func (p *retryProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.seen == nil {
		p.seen = map[string]int{}
	}
	p.seen[r.URL.Path]++
	if p.seen[r.URL.Path] <= p.fail {
		status := http.StatusTooManyRequests
		if p.code == "draining" {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "req-x", p.code, "transient rejection %d", p.seen[r.URL.Path])
		return
	}
	p.okFor(w, r.URL.Path)
}

// TestClientRetryTransient pins the retry satellite: idempotent requests
// retry transient queue_timeout/draining rejections with bounded attempts;
// non-transient errors and non-idempotent endpoints never retry.
func TestClientRetryTransient(t *testing.T) {
	probe := &retryProbe{fail: 2, code: "queue_timeout", okFor: func(w http.ResponseWriter, path string) {
		switch path {
		case "/query":
			writeJSON(w, http.StatusOK, "req-x", QueryResponse{RequestID: "req-x", Result: json.RawMessage(`{}`), Rows: 1})
		case "/stats":
			writeJSON(w, http.StatusOK, "req-x", StatsResponse{RequestID: "req-x"})
		default:
			writeJSON(w, http.StatusOK, "req-x", prepareResponse{RequestID: "req-x", Name: "q"})
		}
	}}
	hs := httptest.NewServer(probe)
	defer hs.Close()

	c := NewClient(hs.URL, hs.Client())
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}

	if _, err := c.Query("q", nil); err != nil {
		t.Fatalf("retryable query did not recover: %v", err)
	}
	if got := probe.seen["/query"]; got != 3 {
		t.Fatalf("query attempted %d times, want 3", got)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("retryable stats did not recover: %v", err)
	}

	// Non-idempotent: /prepare must not retry even on a transient code.
	_, err := c.Prepare("q", "SELECT 1")
	wantServerError(t, err, "queue_timeout", http.StatusTooManyRequests)
	if got := probe.seen["/prepare"]; got != 1 {
		t.Fatalf("prepare attempted %d times, want 1 (never retried)", got)
	}

	// Capped attempts: a server that never recovers exhausts MaxAttempts.
	stuck := &retryProbe{fail: 1 << 30, code: "draining", okFor: func(http.ResponseWriter, string) {}}
	hs2 := httptest.NewServer(stuck)
	defer hs2.Close()
	c2 := NewClient(hs2.URL, hs2.Client())
	c2.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	_, err = c2.Query("q", nil)
	wantServerError(t, err, "draining", http.StatusServiceUnavailable)
	if got := stuck.seen["/query"]; got != 3 {
		t.Fatalf("stuck query attempted %d times, want exactly MaxAttempts=3", got)
	}

	// Non-transient errors never retry.
	bad := &retryProbe{fail: 1 << 30, code: "query_error", okFor: func(http.ResponseWriter, string) {}}
	hs3 := httptest.NewServer(bad)
	defer hs3.Close()
	c3 := NewClient(hs3.URL, hs3.Client())
	c3.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}
	if _, err := c3.Query("q", nil); err == nil {
		t.Fatal("want error")
	}
	if got := bad.seen["/query"]; got != 1 {
		t.Fatalf("non-transient error retried (%d attempts)", got)
	}
}

// TestRetryAgainstRealServer drives the retry policy against an actual
// draining server: requests during drain fail transiently; the retry loop
// gives up with the transient error rather than hanging.
func TestRetryAgainstRealServer(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c := NewClient(hs.URL, hs.Client())
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond}
	_, err := c.Query(flatJoinQuery, nil)
	wantServerError(t, err, "draining", http.StatusServiceUnavailable)
}
