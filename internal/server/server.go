// Package server is the network-facing query server over one engine: a
// multi-goroutine single-node HTTP/JSON service in the shape of the N1QL
// query engine, whose parse → prepare → execute split maps onto the engine's
// bind → plan → exec pipeline.
//
// The pieces:
//
//   - Sessions: POST /session registers per-session engine.Options (strategy,
//     join family, access path, batch size, pins); subsequent requests name
//     the session and inherit them. Requests without a session run under the
//     server's default options. Sessions also namespace prepared statements.
//   - Prepared statements: POST /prepare parses and binds once
//     (engine.Prepare); POST /execute re-executes the bound tree, going
//     straight to the engine's plan cache — a hit also after writes (the
//     plan holds no rows); its keys carry the statistics generations of the
//     referenced tables, so re-execution replans once a table has drifted
//     far enough for its statistics to be recollected.
//   - Admission control: at most Config.MaxConcurrency queries execute at
//     once; excess requests queue up to Config.QueueTimeout and then fail
//     with a structured queue_timeout error rather than piling onto the
//     engine.
//   - Graceful shutdown: Shutdown stops admitting (requests fail fast with a
//     draining error, /healthz turns 503) and blocks until every in-flight
//     query has drained.
//   - Cancellation and budgets: the request's context is threaded through
//     admission and execution, so a client that disconnects mid-queue frees
//     its slot (counted as client_gone in /stats) and one that disconnects
//     mid-query aborts the executor. Per-session or per-request timeout_ms /
//     max_rows / max_build_bytes map onto engine.Limits; breaches come back
//     as structured 408 deadline_exceeded / 413 budget_exceeded documents,
//     with the discarded partial work accounted in /stats.
//   - Panic isolation: a panic anywhere in a request becomes a 500 internal
//     error document carrying the request ID; the server stays up. (The
//     engine already isolates execution panics into *engine.PanicError; the
//     ServeHTTP recover is defense in depth for the handler layer itself.)
//
// Every response carries a request ID (X-Request-ID header and request_id
// field); errors are structured {"error": {"code", "message"}} documents.
// The engine itself is safe for concurrent use (see ARCHITECTURE.md
// "Thread-safety contract"), so the server adds no query-path locking beyond
// the admission semaphore.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tmdb/internal/engine"
	"tmdb/internal/exec"
)

// Config parameterizes a Server.
type Config struct {
	// MaxConcurrency bounds the number of queries executing at once
	// (admission control). 0 means 4 × GOMAXPROCS.
	MaxConcurrency int
	// QueueTimeout is how long an admitted-over-capacity request waits for an
	// execution slot before failing with code "queue_timeout". 0 means 2s.
	QueueTimeout time.Duration
	// DefaultOptions are the engine options of requests that name no session.
	DefaultOptions engine.Options
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 4 * runtime.GOMAXPROCS(0)
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Server serves one engine over HTTP/JSON. Construct with New; it implements
// http.Handler. All methods are safe for concurrent use.
type Server struct {
	eng *engine.Engine
	cfg Config
	mux *http.ServeMux

	// sem is the admission semaphore: one token per concurrently executing
	// query.
	sem chan struct{}

	// reqSeq numbers requests for the X-Request-ID header.
	reqSeq atomic.Uint64

	// sessions registry. The default session (key "") is created eagerly and
	// cannot be closed.
	mu       sync.RWMutex
	sessions map[string]*session
	sessSeq  uint64

	// drain gate: tracks in-flight requests and rejects new ones while
	// draining.
	drain drainGate

	// counters for /stats.
	admitted      atomic.Uint64
	queueTimeouts atomic.Uint64
	drainRejects  atomic.Uint64

	// governance counters for /stats: aborted-query taxonomy plus the partial
	// work those aborts discarded.
	clientGone       atomic.Uint64
	deadlineExceeded atomic.Uint64
	budgetExceeded   atomic.Uint64
	canceled         atomic.Uint64
	panics           atomic.Uint64
	discardedRows    atomic.Int64
	discardedBytes   atomic.Int64

	// mutation counters for /stats: successful data and DDL operations.
	inserts      atomic.Uint64
	deletes      atomic.Uint64
	indexCreates atomic.Uint64
	indexDrops   atomic.Uint64

	// statsSeq numbers /stats snapshots: each response carries a unique,
	// strictly increasing seq, so concurrent scrapers can order their
	// snapshots and compute deltas without coordinating.
	statsSeq atomic.Uint64
}

// New returns a server over eng.
func New(eng *engine.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:      eng,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxConcurrency),
		sessions: map[string]*session{"": newSession("", cfg.DefaultOptions)},
	}
	s.drain.idle = make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /session", s.handleSessionNew)
	mux.HandleFunc("DELETE /session/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /prepare", s.handlePrepare)
	mux.HandleFunc("POST /execute", s.handleExecute)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("POST /insert", s.handleInsert)
	mux.HandleFunc("POST /delete", s.handleDelete)
	mux.HandleFunc("POST /index/create", s.handleIndexCreate)
	mux.HandleFunc("POST /index/drop", s.handleIndexDrop)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s
}

// Engine returns the engine the server fronts.
func (s *Server) Engine() *engine.Engine { return s.eng }

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client went away, so no one will read the body, but the
// status still distinguishes the case in logs and tests.
const statusClientClosedRequest = 499

// ServeHTTP implements http.Handler. It wraps every request in panic
// isolation: a panic escaping a handler becomes a 500 internal error document
// and the server keeps serving. (http.ErrAbortHandler is re-raised — that is
// net/http's sanctioned way to abort a response.)
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if p == http.ErrAbortHandler {
			panic(p)
		}
		s.panics.Add(1)
		reqID := s.nextRequestID()
		writeError(w, http.StatusInternalServerError, reqID, "internal",
			"internal error (request %s): %v", reqID, p)
	}()
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server: new requests are rejected with code "draining"
// (and /healthz turns 503) while every in-flight request runs to completion.
// It returns nil once drained, or the context's error if it expires first —
// in-flight queries are never cancelled mid-execution either way. Shutdown is
// idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.drain.wait(ctx)
}

// Draining reports whether Shutdown has been called.
func (s *Server) Draining() bool { return s.drain.draining() }

// InFlight returns the number of requests currently being served.
func (s *Server) InFlight() int { return s.drain.inFlight() }

// drainGate tracks in-flight requests and coordinates graceful shutdown
// without sync.WaitGroup's Add-after-Wait restriction: enter refuses once
// draining, and wait closes idle exactly when the count reaches zero.
type drainGate struct {
	mu   sync.Mutex
	n    int
	down bool
	idle chan struct{}
}

func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.down {
		return false
	}
	g.n++
	return true
}

func (g *drainGate) leave() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n--
	if g.down && g.n == 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
}

func (g *drainGate) wait(ctx context.Context) error {
	g.mu.Lock()
	if !g.down {
		g.down = true
	}
	if g.n == 0 {
		select {
		case <-g.idle:
		default:
			close(g.idle)
		}
	}
	g.mu.Unlock()
	select {
	case <-g.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *drainGate) draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.down
}

func (g *drainGate) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// session is one registered client context: resolved engine options plus a
// namespace of prepared statements.
type session struct {
	id      string
	opts    engine.Options
	created time.Time

	mu       sync.RWMutex
	prepared map[string]*engine.Prepared
}

func newSession(id string, opts engine.Options) *session {
	return &session{id: id, opts: opts, created: time.Now(), prepared: make(map[string]*engine.Prepared)}
}

func (ss *session) stmt(name string) (*engine.Prepared, bool) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	p, ok := ss.prepared[name]
	return p, ok
}

func (ss *session) setStmt(name string, p *engine.Prepared) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, dup := ss.prepared[name]; dup {
		return fmt.Errorf("statement %q already prepared in this session", name)
	}
	ss.prepared[name] = p
	return nil
}

func (ss *session) stmtCount() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return len(ss.prepared)
}

// lookupSession resolves a session ID ("" = the default session).
func (s *Server) lookupSession(id string) (*session, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ss, ok := s.sessions[id]
	return ss, ok
}

// --- wire types ---

// wireError is the structured error document body.
type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	RequestID string    `json:"request_id"`
	Error     wireError `json:"error"`
}

// sessionRequest is the POST /session body.
type sessionRequest struct {
	Options WireOptions `json:"options"`
}

type sessionResponse struct {
	RequestID string `json:"request_id"`
	SessionID string `json:"session_id"`
}

// queryRequest is the POST /query, /execute, and /explain body: /query takes
// Query, /execute takes Name, /explain takes either (Name wins). Options, if
// present, replace the session's options for this request.
type queryRequest struct {
	SessionID string       `json:"session_id,omitempty"`
	Query     string       `json:"query,omitempty"`
	Name      string       `json:"name,omitempty"`
	Options   *WireOptions `json:"options,omitempty"`
}

// prepareRequest is the POST /prepare body.
type prepareRequest struct {
	SessionID string `json:"session_id,omitempty"`
	Name      string `json:"name"`
	Query     string `json:"query"`
}

type prepareResponse struct {
	RequestID string   `json:"request_id"`
	SessionID string   `json:"session_id,omitempty"`
	Name      string   `json:"name"`
	Tables    []string `json:"tables"`
}

// QueryResponse is the /query and /execute response body. Result is the
// value's canonical JSON (sets in canonical element order), so two responses
// are byte-comparable.
type QueryResponse struct {
	RequestID  string          `json:"request_id"`
	Result     json.RawMessage `json:"result"`
	Rows       int             `json:"rows"`
	Strategy   string          `json:"strategy"`
	Alt        string          `json:"alt,omitempty"`
	Joins      string          `json:"joins"`
	Access     string          `json:"access"`
	Batch      int             `json:"batch"`
	Auto       bool            `json:"auto"`
	CacheHit   bool            `json:"cache_hit"`
	DurationNs int64           `json:"duration_ns"`
	EvalSteps  int64           `json:"eval_steps"`
}

type explainResponse struct {
	RequestID string `json:"request_id"`
	Explain   string `json:"explain"`
}

// StatsResponse is the GET /stats body. Every counter is cumulative since
// server start (never reset), so any two snapshots yield a well-defined
// delta; Seq and UnixNanos identify and order the snapshot itself.
type StatsResponse struct {
	RequestID string `json:"request_id"`
	// Seq is unique and strictly increasing across /stats responses —
	// concurrent scrapers can order their snapshots without coordination.
	// UnixNanos is the wall-clock capture time.
	Seq            uint64            `json:"seq"`
	UnixNanos      int64             `json:"unix_nanos"`
	Sessions       int               `json:"sessions"`
	Prepared       int               `json:"prepared"`
	InFlight       int               `json:"in_flight"`
	MaxConcurrency int               `json:"max_concurrency"`
	QueueTimeoutMs int64             `json:"queue_timeout_ms"`
	Admitted       uint64            `json:"admitted"`
	QueueTimeouts  uint64            `json:"queue_timeouts"`
	DrainRejects   uint64            `json:"drain_rejects"`
	Draining       bool              `json:"draining"`
	PlanCache      engine.CacheStats `json:"plan_cache"`

	// Governance: aborted-query taxonomy counters and the partial work those
	// aborts had already materialized (all of it discarded).
	ClientGone          uint64 `json:"client_gone"`
	DeadlineExceeded    uint64 `json:"deadline_exceeded"`
	BudgetExceeded      uint64 `json:"budget_exceeded"`
	Canceled            uint64 `json:"canceled"`
	Panics              uint64 `json:"panics"`
	DiscardedRows       int64  `json:"discarded_rows"`
	DiscardedBuildBytes int64  `json:"discarded_build_bytes"`

	// Mutations: successful data and DDL operations served.
	Inserts      uint64 `json:"inserts"`
	Deletes      uint64 `json:"deletes"`
	IndexCreates uint64 `json:"index_creates"`
	IndexDrops   uint64 `json:"index_drops"`
}

// --- plumbing ---

func (s *Server) nextRequestID() string {
	return fmt.Sprintf("req-%d", s.reqSeq.Add(1))
}

func writeJSON(w http.ResponseWriter, status int, reqID string, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Request-ID", reqID)
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(body)
}

func writeError(w http.ResponseWriter, status int, reqID, code string, format string, args ...any) {
	writeJSON(w, status, reqID, errorResponse{
		RequestID: reqID,
		Error:     wireError{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// writeEngineError maps an engine execution error onto the wire taxonomy:
//
//	408 deadline_exceeded — per-query timeout_ms (or the request deadline) hit
//	413 budget_exceeded   — max_rows / max_build_bytes breached
//	499 canceled          — client went away mid-execution
//	410 table_dropped     — referenced table dropped since binding
//	500 internal          — panic isolated by the engine
//	422 query_error       — everything else (parse, bind, type errors)
//
// Aborted queries carry partial-work accounting (*engine.AbortError); the
// rows and build bytes they had already materialized are added to the
// discarded counters surfaced in /stats.
func (s *Server) writeEngineError(w http.ResponseWriter, reqID string, err error) {
	var ab *engine.AbortError
	if errors.As(err, &ab) {
		s.discardedRows.Add(ab.PartialRows)
		s.discardedBytes.Add(ab.PartialBuildBytes)
	}
	var pe *engine.PanicError
	switch {
	case errors.Is(err, exec.ErrDeadlineExceeded):
		s.deadlineExceeded.Add(1)
		writeError(w, http.StatusRequestTimeout, reqID, "deadline_exceeded", "%v", err)
	case errors.Is(err, exec.ErrBudgetExceeded):
		s.budgetExceeded.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge, reqID, "budget_exceeded", "%v", err)
	case errors.Is(err, exec.ErrCanceled):
		s.canceled.Add(1)
		writeError(w, statusClientClosedRequest, reqID, "canceled", "%v", err)
	case errors.Is(err, engine.ErrTableDropped):
		writeError(w, http.StatusGone, reqID, "table_dropped", "%v", err)
	case errors.As(err, &pe):
		s.panics.Add(1)
		writeError(w, http.StatusInternalServerError, reqID, "internal",
			"internal error (request %s): %v", reqID, pe.Val)
	default:
		writeError(w, http.StatusUnprocessableEntity, reqID, "query_error", "%v", err)
	}
}

// maxRequestBytes caps every request body; decode answers a larger one with
// 413 request_too_large instead of buffering it.
const maxRequestBytes = 1 << 20

// decode parses a JSON request body, returning false (response written) on
// malformed or oversized input.
func decode(w http.ResponseWriter, r *http.Request, reqID string, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, reqID, "request_too_large",
				"request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "malformed request body: %v", err)
		return false
	}
	return true
}

// begin gates one request through the drain gate, returning false (response
// written) while the server is shutting down.
func (s *Server) begin(w http.ResponseWriter, reqID string) bool {
	if !s.drain.enter() {
		s.drainRejects.Add(1)
		writeError(w, http.StatusServiceUnavailable, reqID, "draining", "server is shutting down")
		return false
	}
	return true
}

// admit acquires an execution slot, queueing up to the configured timeout.
// Returns false (response written) on queue timeout or client disconnect.
// Callers must release() on true.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, reqID string) bool {
	select {
	case s.sem <- struct{}{}:
		s.admitted.Add(1)
		return true
	default:
	}
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.admitted.Add(1)
		return true
	case <-t.C:
		s.queueTimeouts.Add(1)
		writeError(w, http.StatusTooManyRequests, reqID, "queue_timeout",
			"no execution slot within %s (max_concurrency %d)", s.cfg.QueueTimeout, s.cfg.MaxConcurrency)
		return false
	case <-r.Context().Done():
		s.clientGone.Add(1)
		writeError(w, statusClientClosedRequest, reqID, "client_gone", "client went away while queued")
		return false
	}
}

func (s *Server) release() { <-s.sem }

// requestOptions resolves the effective engine options of a request: the
// named session's, unless the request carries options of its own.
func (s *Server) requestOptions(w http.ResponseWriter, reqID string, sessID string, override *WireOptions) (engine.Options, *session, bool) {
	ss, ok := s.lookupSession(sessID)
	if !ok {
		writeError(w, http.StatusNotFound, reqID, "unknown_session", "no session %q (create one with POST /session)", sessID)
		return engine.Options{}, nil, false
	}
	opts := ss.opts
	if override != nil {
		var err error
		opts, err = override.Engine()
		if err != nil {
			writeError(w, http.StatusBadRequest, reqID, "bad_options", "%v", err)
			return engine.Options{}, nil, false
		}
	}
	return opts, ss, true
}

// --- handlers ---

func (s *Server) handleSessionNew(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if !s.begin(w, reqID) {
		return
	}
	defer s.drain.leave()
	var req sessionRequest
	if !decode(w, r, reqID, &req) {
		return
	}
	opts, err := req.Options.Engine()
	if err != nil {
		writeError(w, http.StatusBadRequest, reqID, "bad_options", "%v", err)
		return
	}
	s.mu.Lock()
	s.sessSeq++
	id := fmt.Sprintf("s-%d", s.sessSeq)
	s.sessions[id] = newSession(id, opts)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, reqID, sessionResponse{RequestID: reqID, SessionID: id})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if !s.begin(w, reqID) {
		return
	}
	defer s.drain.leave()
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "missing session id")
		return
	}
	s.mu.Lock()
	_, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, reqID, "unknown_session", "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, reqID, sessionResponse{RequestID: reqID, SessionID: id})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if !s.begin(w, reqID) {
		return
	}
	defer s.drain.leave()
	var req queryRequest
	if !decode(w, r, reqID, &req) {
		return
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "missing query")
		return
	}
	opts, _, ok := s.requestOptions(w, reqID, req.SessionID, req.Options)
	if !ok {
		return
	}
	if !s.admit(w, r, reqID) {
		return
	}
	defer s.release()
	res, err := s.eng.QueryContext(r.Context(), req.Query, opts)
	if err != nil {
		s.writeEngineError(w, reqID, err)
		return
	}
	s.writeResult(w, reqID, res)
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if !s.begin(w, reqID) {
		return
	}
	defer s.drain.leave()
	var req prepareRequest
	if !decode(w, r, reqID, &req) {
		return
	}
	if req.Name == "" || req.Query == "" {
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "prepare needs both name and query")
		return
	}
	ss, ok := s.lookupSession(req.SessionID)
	if !ok {
		writeError(w, http.StatusNotFound, reqID, "unknown_session", "no session %q (create one with POST /session)", req.SessionID)
		return
	}
	stmt, err := s.eng.Prepare(req.Query)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, reqID, "query_error", "%v", err)
		return
	}
	if err := ss.setStmt(req.Name, stmt); err != nil {
		writeError(w, http.StatusConflict, reqID, "duplicate_statement", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, reqID, prepareResponse{
		RequestID: reqID, SessionID: req.SessionID, Name: req.Name, Tables: stmt.Tables(),
	})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if !s.begin(w, reqID) {
		return
	}
	defer s.drain.leave()
	var req queryRequest
	if !decode(w, r, reqID, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "missing prepared-statement name")
		return
	}
	opts, ss, ok := s.requestOptions(w, reqID, req.SessionID, req.Options)
	if !ok {
		return
	}
	stmt, ok := ss.stmt(req.Name)
	if !ok {
		writeError(w, http.StatusNotFound, reqID, "unknown_statement", "no prepared statement %q in session %q", req.Name, req.SessionID)
		return
	}
	if !s.admit(w, r, reqID) {
		return
	}
	defer s.release()
	res, err := stmt.QueryContext(r.Context(), opts)
	if err != nil {
		s.writeEngineError(w, reqID, err)
		return
	}
	s.writeResult(w, reqID, res)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if !s.begin(w, reqID) {
		return
	}
	defer s.drain.leave()
	var req queryRequest
	if !decode(w, r, reqID, &req) {
		return
	}
	opts, ss, ok := s.requestOptions(w, reqID, req.SessionID, req.Options)
	if !ok {
		return
	}
	if !s.admit(w, r, reqID) {
		return
	}
	defer s.release()
	var text string
	var err error
	switch {
	case req.Name != "":
		stmt, ok := ss.stmt(req.Name)
		if !ok {
			writeError(w, http.StatusNotFound, reqID, "unknown_statement", "no prepared statement %q in session %q", req.Name, req.SessionID)
			return
		}
		text, err = stmt.ExplainContext(r.Context(), opts)
	case req.Query != "":
		text, err = s.eng.ExplainContext(r.Context(), req.Query, opts)
	default:
		writeError(w, http.StatusBadRequest, reqID, "bad_request", "explain needs a query or a prepared-statement name")
		return
	}
	if err != nil {
		s.writeEngineError(w, reqID, err)
		return
	}
	writeJSON(w, http.StatusOK, reqID, explainResponse{RequestID: reqID, Explain: text})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	s.mu.RLock()
	sessions := len(s.sessions)
	prepared := 0
	for _, ss := range s.sessions {
		prepared += ss.stmtCount()
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, reqID, StatsResponse{
		RequestID:      reqID,
		Seq:            s.statsSeq.Add(1),
		UnixNanos:      time.Now().UnixNano(),
		Sessions:       sessions,
		Prepared:       prepared,
		InFlight:       s.InFlight(),
		MaxConcurrency: s.cfg.MaxConcurrency,
		QueueTimeoutMs: s.cfg.QueueTimeout.Milliseconds(),
		Admitted:       s.admitted.Load(),
		QueueTimeouts:  s.queueTimeouts.Load(),
		DrainRejects:   s.drainRejects.Load(),
		Draining:       s.Draining(),
		PlanCache:      s.eng.PlanCacheStats(),

		ClientGone:          s.clientGone.Load(),
		DeadlineExceeded:    s.deadlineExceeded.Load(),
		BudgetExceeded:      s.budgetExceeded.Load(),
		Canceled:            s.canceled.Load(),
		Panics:              s.panics.Load(),
		DiscardedRows:       s.discardedRows.Load(),
		DiscardedBuildBytes: s.discardedBytes.Load(),

		Inserts:      s.inserts.Load(),
		Deletes:      s.deletes.Load(),
		IndexCreates: s.indexCreates.Load(),
		IndexDrops:   s.indexDrops.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reqID := s.nextRequestID()
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, reqID, map[string]string{"status": "draining", "request_id": reqID})
		return
	}
	writeJSON(w, http.StatusOK, reqID, map[string]string{"status": "ok", "request_id": reqID})
}

// writeResult renders an engine result as a QueryResponse.
func (s *Server) writeResult(w http.ResponseWriter, reqID string, res *engine.Result) {
	raw, err := json.Marshal(res.Value)
	if err != nil {
		writeError(w, http.StatusInternalServerError, reqID, "internal", "encoding result: %v", err)
		return
	}
	alt := res.Alt
	if alt == "base" {
		alt = ""
	}
	writeJSON(w, http.StatusOK, reqID, QueryResponse{
		RequestID:  reqID,
		Result:     raw,
		Rows:       res.Value.Len(),
		Strategy:   res.Strategy.String(),
		Alt:        alt,
		Joins:      res.Joins.String(),
		Access:     res.Access.String(),
		Batch:      res.Batch,
		Auto:       res.Auto,
		CacheHit:   res.CacheHit,
		DurationNs: res.Duration.Nanoseconds(),
		EvalSteps:  res.EvalSteps,
	})
}
