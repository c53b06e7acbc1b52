package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/datagen"
	"tmdb/internal/engine"
	"tmdb/internal/enginetest"
)

// xyzGoldens are the conformance queries answerable by the xyz sample
// database — the one engine every server test serves.
func xyzGoldens() []enginetest.Golden {
	var out []enginetest.Golden
	for _, g := range enginetest.Goldens {
		if g.DB == "xyz" {
			out = append(out, g)
		}
	}
	return out
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(enginetest.OpenDB("xyz"), cfg)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// TestConcurrentSessionsMatchSerialOracle is the server conformance test: 64
// concurrent sessions each run every golden query over HTTP and must get
// responses byte-identical to a serial oracle computed through the engine
// directly. Byte identity works because value.Value marshals sets in
// canonical element order.
func TestConcurrentSessionsMatchSerialOracle(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrency: 8})
	goldens := xyzGoldens()
	if len(goldens) == 0 {
		t.Fatal("no xyz goldens")
	}

	// Serial oracle: the canonical JSON of each golden's result.
	oracle := make(map[string][]byte, len(goldens))
	for _, g := range goldens {
		res, err := srv.Engine().Query(g.Query, engine.Options{})
		if err != nil {
			t.Fatalf("oracle %s: %v", g.Name, err)
		}
		raw, err := json.Marshal(res.Value)
		if err != nil {
			t.Fatal(err)
		}
		oracle[g.Name] = raw
	}

	sessions := 64
	if testing.Short() {
		sessions = 16
	}
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(cid int) {
			defer wg.Done()
			c := NewClient(hs.URL, hs.Client())
			if _, err := c.NewSession(WireOptions{}); err != nil {
				errs <- fmt.Errorf("client %d: new session: %w", cid, err)
				return
			}
			for _, g := range goldens {
				resp, err := c.Query(g.Query, nil)
				if err != nil {
					errs <- fmt.Errorf("client %d %s: %w", cid, g.Name, err)
					return
				}
				if !bytes.Equal(resp.Result, oracle[g.Name]) {
					errs <- fmt.Errorf("client %d %s: result diverged from serial oracle:\n  got:  %s\n  want: %s",
						cid, g.Name, resp.Result, oracle[g.Name])
					return
				}
			}
			if err := c.CloseSession(); err != nil {
				errs <- fmt.Errorf("client %d: close session: %w", cid, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedOverHTTPReplansAfterMutation drives the prepare/execute
// endpoints: re-execution after a table mutation observes the new row from
// the cached plan (a write within the statistics drift bound moves nothing
// the plan-cache key carries), and replans once after Analyze collected a
// new statistics generation.
func TestPreparedOverHTTPReplansAfterMutation(t *testing.T) {
	srv, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())
	if _, err := c.NewSession(WireOptions{}); err != nil {
		t.Fatal(err)
	}
	tables, err := c.Prepare("q", `SELECT y.a FROM Y y WHERE y.b = 777`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "Y" {
		t.Fatalf("prepare tables = %v, want [Y]", tables)
	}
	first, err := c.Execute("q", nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rows != 0 {
		t.Fatalf("expected no rows before the insert, got %d", first.Rows)
	}
	added, err := srv.Engine().InsertValue("Y", datagen.YRow(42, 777, 5, 9))
	if err != nil || !added {
		t.Fatalf("InsertValue: added=%v err=%v", added, err)
	}
	for _, wantHit := range []bool{true, false, true} {
		after, err := c.Execute("q", nil)
		if err != nil {
			t.Fatal(err)
		}
		if after.CacheHit != wantHit {
			t.Fatalf("execute after a mutation: cache_hit=%v, want %v", after.CacheHit, wantHit)
		}
		if after.Rows != 1 {
			t.Fatalf("inserted row not visible through the prepared statement: rows = %d", after.Rows)
		}
		if wantHit {
			srv.Engine().Analyze()
		}
	}
	// Re-preparing the same name is a structured conflict.
	if _, err := c.Prepare("q", `SELECT y.a FROM Y y`); err == nil {
		t.Fatal("duplicate prepare succeeded")
	} else if se, ok := err.(*ServerError); !ok || se.Code != "duplicate_statement" {
		t.Fatalf("duplicate prepare error = %v, want code duplicate_statement", err)
	}
}

// TestSessionOptionsAndOverride checks that a session's options shape
// execution and that per-request options replace them.
func TestSessionOptionsAndOverride(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())
	if _, err := c.NewSession(WireOptions{Strategy: "naive"}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT y.a FROM Y y WHERE y.b = 3`
	resp, err := c.Query(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != "naive" || resp.Auto {
		t.Fatalf("session options ignored: strategy=%s auto=%v", resp.Strategy, resp.Auto)
	}
	over, err := c.Query(q, &WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Auto {
		t.Fatalf("request options did not replace the session's: auto=%v strategy=%s", over.Auto, over.Strategy)
	}
	if !bytes.Equal(resp.Result, over.Result) {
		t.Fatalf("naive and auto disagree:\n  naive: %s\n  auto:  %s", resp.Result, over.Result)
	}
	// Unknown vocabulary is a structured bad_options error.
	if _, err := c.Query(q, &WireOptions{Joins: "quantum"}); err == nil {
		t.Fatal("bogus join impl accepted")
	} else if se, ok := err.(*ServerError); !ok || se.Code != "bad_options" {
		t.Fatalf("bogus join impl error = %v, want code bad_options", err)
	}
}

// TestBatchSizeRejected pins that batch_size is gone from the wire: the
// strict decoder answers 400 bad_request whether the option rides on a new
// session, on a query, or on an execute — and the session it would have
// configured is never created.
func TestBatchSizeRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())
	sid, err := c.NewSession(WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare("p", `SELECT x FROM X x`); err != nil {
		t.Fatal(err)
	}
	sessions := func() int {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st.Sessions
	}
	before := sessions()
	for path, body := range map[string]string{
		"/session": `{"options":{"batch_size":64}}`,
		"/query":   `{"query":"SELECT x FROM X x","options":{"batch_size":-1}}`,
		"/execute": fmt.Sprintf(`{"session_id":%q,"name":"p","options":{"batch_size":1024}}`, sid),
	} {
		resp, err := hs.Client().Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" {
			t.Errorf("%s with batch_size: http %d code %q, want 400 bad_request", path, resp.StatusCode, er.Error.Code)
		}
	}
	if got := sessions(); got != before {
		t.Errorf("sessions = %d after the rejected /session, want %d", got, before)
	}
}

// TestStructuredErrors covers the remaining error codes and the request-ID
// plumbing.
func TestStructuredErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())

	check := func(err error, code string, status int) {
		t.Helper()
		se, ok := err.(*ServerError)
		if !ok {
			t.Fatalf("error = %v, want *ServerError with code %s", err, code)
		}
		if se.Code != code || se.HTTPStatus != status {
			t.Fatalf("error = code %s http %d, want code %s http %d", se.Code, se.HTTPStatus, code, status)
		}
		if se.RequestID == "" {
			t.Fatalf("error %s carries no request ID", code)
		}
	}

	c.SessionID = "s-999"
	_, err := c.Query(`SELECT y FROM Y y`, nil)
	check(err, "unknown_session", http.StatusNotFound)
	c.SessionID = ""

	_, err = c.Execute("nope", nil)
	check(err, "unknown_statement", http.StatusNotFound)

	_, err = c.Query(`SELEKT broken`, nil)
	check(err, "query_error", http.StatusUnprocessableEntity)

	// Infeasible pinned join family fails identically to the engine API.
	_, err = c.Query(`SELECT (xb = x.b, yb = y.b) FROM X x, Y y WHERE x.b < y.b`,
		&WireOptions{Strategy: "nestjoin", Joins: "hash"})
	check(err, "query_error", http.StatusUnprocessableEntity)
	if !strings.Contains(err.Error(), "join requested but") {
		t.Fatalf("infeasible-join error lost the engine's text: %v", err)
	}

	// Malformed body — and, the decoder being strict, a body carrying a
	// field the wire no longer has (the removed "rewrite", "parallelism"
	// and "no_steal" options).
	for _, body := range []string{
		`{"quer`,
		`{"query":"SELECT x FROM X x","options":{"rewrite":true}}`,
		`{"query":"SELECT x FROM X x","options":{"parallelism":4}}`,
		`{"query":"SELECT x FROM X x","options":{"no_steal":true}}`,
	} {
		resp, err := hs.Client().Post(hs.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || er.Error.Code != "bad_request" {
			t.Fatalf("body %s: http %d code %q, want 400 bad_request", body, resp.StatusCode, er.Error.Code)
		}
		if resp.Header.Get("X-Request-ID") == "" {
			t.Fatal("response carries no X-Request-ID header")
		}
	}
}

// TestRequestBodyCap: a /query body one byte over maxRequestBytes is refused
// with 413 request_too_large, and the server goes on serving.
func TestRequestBodyCap(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	const prefix, suffix = `{"query":"SELECT x FROM X x`, `"}`
	body := prefix + strings.Repeat(" ", maxRequestBytes+1-len(prefix)-len(suffix)) + suffix
	resp, err := hs.Client().Post(hs.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || er.Error.Code != "request_too_large" {
		t.Fatalf("oversized body: http %d code %q, want 413 request_too_large", resp.StatusCode, er.Error.Code)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("response carries no X-Request-ID header")
	}
	res, err := NewClient(hs.URL, hs.Client()).Query(`SELECT x FROM X x`, nil)
	if err != nil {
		t.Fatalf("request after the oversized one: %v", err)
	}
	if res.Rows == 0 {
		t.Fatal("request after the oversized one returned no rows")
	}
}

// TestAdmissionQueueTimeout fills every execution slot and asserts the next
// request fails with the structured queue_timeout error instead of piling up.
func TestAdmissionQueueTimeout(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrency: 2, QueueTimeout: 50 * time.Millisecond})
	// Occupy both slots from the test (white-box: the handlers' admit() will
	// find the semaphore full and queue).
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	c := NewClient(hs.URL, hs.Client())
	start := time.Now()
	_, err := c.Query(`SELECT y.a FROM Y y WHERE y.b = 3`, nil)
	se, ok := err.(*ServerError)
	if !ok || se.Code != "queue_timeout" || se.HTTPStatus != http.StatusTooManyRequests {
		t.Fatalf("saturated server error = %v, want code queue_timeout http 429", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("queue timeout fired after %s, before the configured 50ms", d)
	}
	// Free a slot: the same request is admitted and succeeds.
	<-srv.sem
	if _, err := c.Query(`SELECT y.a FROM Y y WHERE y.b = 3`, nil); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueTimeouts != 1 {
		t.Fatalf("stats queue_timeouts = %d, want 1", st.QueueTimeouts)
	}
	<-srv.sem
}

// TestGracefulShutdownDrains asserts the acceptance criterion: during
// shutdown new requests are rejected with the draining error, in-flight
// requests run to completion, Shutdown returns only once drained, and no
// goroutines leak.
func TestGracefulShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, hs := newTestServer(t, Config{})
	c := NewClient(hs.URL, hs.Client())

	// Simulate an in-flight request holding the drain gate.
	if !srv.drain.enter() {
		t.Fatal("gate rejected before draining")
	}
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()

	// Shutdown must block on the in-flight request.
	deadline := time.Now().Add(time.Second)
	for !srv.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	// New requests are rejected with the structured draining error...
	_, err := c.Query(`SELECT y.a FROM Y y WHERE y.b = 3`, nil)
	se, ok := err.(*ServerError)
	if !ok || se.Code != "draining" || se.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("query during drain error = %v, want code draining http 503", err)
	}
	// ...and health turns 503.
	if err := c.Health(); err == nil {
		t.Fatal("healthz still ok while draining")
	}

	// The in-flight request finishing releases Shutdown.
	srv.drain.leave()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Shutdown did not return after the last in-flight request finished")
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("in-flight count after drain = %d", n)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	// No goroutine leaks once the listener is closed (allow the runtime a
	// moment to reap handler goroutines).
	hs.Close()
	deadline = time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after shutdown", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownContextExpiry: a drain that cannot finish honors the context.
func TestShutdownContextExpiry(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	if !srv.drain.enter() {
		t.Fatal("gate rejected before draining")
	}
	defer srv.drain.leave()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown with stuck request = %v, want context.DeadlineExceeded", err)
	}
}

// TestServerConcurrentMixedLoad exercises the whole API surface from many
// goroutines at once — reads, prepared execution, EXPLAIN, /stats, inserts and
// deletes on Y, index create/drop churn on X(b) under queries that want that
// index, and per-request option overrides that give one text distinct
// plan-cache keys. Run under -race this is the server-side half of the
// concurrency sweep.
func TestServerConcurrentMixedLoad(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxConcurrency: 4, QueueTimeout: 5 * time.Second})
	const workers, cases = 8, 9
	iters := 15
	if testing.Short() {
		iters = 5
	}
	// X is never written, so its point answer is fixed: every override and
	// the final auto-planned read must match naive evaluation byte for byte.
	const point = `SELECT x FROM X x WHERE x.b = 3`
	naive, err := srv.Engine().Query(point, engine.Options{Strategy: core.StrategyNaive})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := json.Marshal(naive.Value)
	if err != nil {
		t.Fatal(err)
	}
	overrides := []WireOptions{
		{Strategy: "nestjoin"}, {Joins: "nl"}, {Joins: "hash"}, {Joins: "merge"}, {Access: "scan"},
	}
	probe := NewClient(hs.URL, hs.Client())
	before, err := probe.Stats()
	if err != nil {
		t.Fatal(err)
	}

	var seq, live atomic.Int64 // $SEQ source for distinct Y rows; rows inserted and not yet deleted
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			c := NewClient(hs.URL, hs.Client())
			if _, err := c.NewSession(WireOptions{}); err != nil {
				errs <- err
				return
			}
			name := fmt.Sprintf("w%d", gid)
			if _, err := c.Prepare(name, `SELECT y.a FROM Y y WHERE y.d = 2`); err != nil {
				errs <- err
				return
			}
			var mine []int64 // this worker's inserted, undeleted rows' a values
			// Starting each worker at its own case covers every case per run
			// even in -short mode.
			for i := 0; i < iters; i++ {
				var err error
				switch k := (gid + i) % cases; k {
				case 0:
					_, err = c.Query(`SELECT x FROM X x WHERE x.b IN SELECT y.d FROM Y y WHERE x.b = y.d`, nil)
				case 1:
					_, err = c.Execute(name, nil)
				case 2:
					_, err = c.Explain(`SELECT y.a FROM Y y WHERE y.b = 3`, "", nil)
				case 3:
					_, err = c.Stats()
				case 4:
					a := 1_000_000 + seq.Add(1)
					var added bool
					if added, err = c.Insert("Y", fmt.Sprintf("(a = %d, b = 7, c = {1}, d = 424242)", a)); err == nil && !added {
						err = fmt.Errorf("insert of distinct row a=%d reported added=false", a)
					}
					if added {
						mine = append(mine, a)
						live.Add(1)
					}
				case 5:
					a, want := 1_000_000+seq.Add(1), 0 // a row nobody inserted
					if len(mine) > 0 {
						a, mine, want = mine[0], mine[1:], 1
					}
					var n int
					if n, err = c.Delete("Y", "y", fmt.Sprintf("y.a = %d", a)); err == nil && n != want {
						err = fmt.Errorf("delete of y.a = %d removed %d rows, want %d", a, n, want)
					}
					live.Add(-int64(n))
				case 6, 7:
					if k == 6 {
						err = c.CreateIndex("X", "b")
					} else {
						err = c.DropIndex("X", "b")
					}
					// Creating an existing index is a no-op; a racing drop may
					// find the index already gone, and only that is allowed.
					var se *ServerError
					if errors.As(err, &se) && se.Code == "query_error" && strings.Contains(se.Message, "no index") {
						err = nil
					}
				case 8:
					for _, opts := range overrides {
						var resp *QueryResponse
						if resp, err = c.Query(point, &opts); err != nil {
							break
						}
						if !bytes.Equal(resp.Result, oracle) {
							err = fmt.Errorf("%+v: result diverged from naive:\n  got:  %s\n  want: %s", opts, resp.Result, oracle)
							break
						}
					}
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", gid, i, err)
					return
				}
			}
			errs <- c.CloseSession()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("in-flight after load = %d", got)
	}
	after, err := probe.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Inserts == before.Inserts || after.Deletes == before.Deletes ||
		after.IndexCreates+after.IndexDrops == before.IndexCreates+before.IndexDrops {
		t.Errorf("/stats delta misses the load's writes: before %+v, after %+v", before, after)
	}
	final, err := probe.Query(point, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Result, oracle) {
		t.Errorf("final %s diverged from naive:\n  got:  %s\n  want: %s", point, final.Result, oracle)
	}
	ys, err := probe.Query(`SELECT y.a FROM Y y WHERE y.d = 424242`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int64(ys.Rows) != live.Load() {
		t.Errorf("Y holds %d inserted rows after the load, want %d (inserted minus deleted)", ys.Rows, live.Load())
	}
}

// Engine returns the engine the server fronts.
func (s *Server) Engine() *engine.Engine { return s.eng }
