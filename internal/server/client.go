package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

// Client is a thin typed wrapper over the server's HTTP/JSON API, used by the
// conformance tests and handy for tooling. A Client is safe for concurrent
// use (the underlying http.Client is).
type Client struct {
	base string
	hc   *http.Client
	// SessionID, when set, is attached to every request that supports one.
	SessionID string
	// Retry, when enabled, re-sends transient rejections (429 queue_timeout,
	// 503 draining) of idempotent requests with bounded exponential backoff.
	// The zero value disables retry. Set before first use; not synchronized.
	Retry RetryPolicy
}

// RetryPolicy bounds the client's automatic retry of transient server
// rejections. Only idempotent requests are ever retried — POST /query,
// POST /explain, GET /stats, GET /healthz — and only on the transient codes
// queue_timeout and draining; mutating endpoints (/session, /prepare,
// /insert, /delete, /index/*) and prepared-statement execution are never
// re-sent, and non-transient errors
// (query errors, deadline/budget breaches, cancellations) fail immediately.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (1 = no
	// retry). 0 disables retry entirely.
	MaxAttempts int
	// BaseDelay is the first backoff step, doubling each retry; each sleep is
	// equal-jittered (half fixed, half random). 0 means 25ms.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff step. 0 means 1s.
	MaxDelay time.Duration
}

// retryable reports whether a (method, path) pair is safe to re-send: it must
// not create, mutate, or consume server-side state when repeated.
func retryable(method, path string) bool {
	switch {
	case method == "POST" && (path == "/query" || path == "/explain"):
		return true
	case method == "GET" && (path == "/stats" || path == "/healthz"):
		return true
	}
	return false
}

// transient reports whether err is a server rejection worth retrying.
func transient(err error) bool {
	var se *ServerError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == "queue_timeout" || se.Code == "draining"
}

// backoff returns the sleep before retry number attempt (0-based): an
// exponentially growing step, capped, with equal jitter so synchronized
// clients fan out.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	step := base << uint(attempt)
	if step <= 0 || step > max {
		step = max
	}
	return step/2 + rand.N(step/2+1)
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). hc may be nil for http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: base, hc: hc}
}

// ServerError is a structured error response from the server.
type ServerError struct {
	Code      string
	Message   string
	RequestID string
	// HTTPStatus is the response's status code.
	HTTPStatus int
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("server: %s (%s, http %d)", e.Message, e.Code, e.HTTPStatus)
}

func (c *Client) do(method, path string, body, into any) error {
	var buf []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		buf = b
	}
	attempts := 1
	if c.Retry.MaxAttempts > 1 && retryable(method, path) {
		attempts = c.Retry.MaxAttempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(c.Retry.backoff(attempt - 1))
		}
		err = c.doOnce(method, path, buf, into)
		if err == nil || !transient(err) {
			return err
		}
	}
	return err
}

// readBufs recycles the buffers doOnce reads responses into. Nothing decoded
// from one aliases it — json.Unmarshal copies, RawMessage included — so a
// buffer is free again once doOnce returns; one grown past maxPooledRead is
// left to the collector rather than pinned.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 64 << 10

func putReadBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledRead {
		b.Reset()
		readBufs.Put(b)
	}
}

// doOnce sends one request (body pre-marshaled so retries re-send identical
// bytes) and decodes the response.
func (c *Client) doOnce(method, path string, body []byte, into any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header["Content-Type"] = jsonContentType
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := readBufs.Get().(*bytes.Buffer)
	defer putReadBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	raw := buf.Bytes()
	if resp.StatusCode != http.StatusOK {
		var er errorResponse
		if json.Unmarshal(raw, &er) == nil && er.Error.Code != "" {
			return &ServerError{
				Code: er.Error.Code, Message: er.Error.Message,
				RequestID: er.RequestID, HTTPStatus: resp.StatusCode,
			}
		}
		return fmt.Errorf("server: http %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(raw, into)
}

// NewSession registers a session with the given options and stores its ID on
// the client for subsequent calls.
func (c *Client) NewSession(opts WireOptions) (string, error) {
	var resp sessionResponse
	if err := c.do("POST", "/session", sessionRequest{Options: opts}, &resp); err != nil {
		return "", err
	}
	c.SessionID = resp.SessionID
	return resp.SessionID, nil
}

// CloseSession closes the client's session (a no-op if none was created).
func (c *Client) CloseSession() error {
	if c.SessionID == "" {
		return nil
	}
	err := c.do("DELETE", "/session/"+c.SessionID, nil, nil)
	if err == nil {
		c.SessionID = ""
	}
	return err
}

// Query runs a one-shot query. opts may be nil to use the session's options.
func (c *Client) Query(query string, opts *WireOptions) (*QueryResponse, error) {
	var resp QueryResponse
	err := c.do("POST", "/query", queryRequest{SessionID: c.SessionID, Query: query, Options: opts}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Prepare registers a named prepared statement in the client's session.
func (c *Client) Prepare(name, query string) ([]string, error) {
	var resp prepareResponse
	err := c.do("POST", "/prepare", prepareRequest{SessionID: c.SessionID, Name: name, Query: query}, &resp)
	if err != nil {
		return nil, err
	}
	return resp.Tables, nil
}

// Execute runs a prepared statement by name. opts may be nil to use the
// session's options.
func (c *Client) Execute(name string, opts *WireOptions) (*QueryResponse, error) {
	var resp QueryResponse
	err := c.do("POST", "/execute", queryRequest{SessionID: c.SessionID, Name: name, Options: opts}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Explain returns the plan description of a query (or, with name != "", of a
// prepared statement).
func (c *Client) Explain(query, name string, opts *WireOptions) (string, error) {
	var resp explainResponse
	err := c.do("POST", "/explain", queryRequest{SessionID: c.SessionID, Query: query, Name: name, Options: opts}, &resp)
	if err != nil {
		return "", err
	}
	return resp.Explain, nil
}

// Insert inserts a closed TM expression (typically a tuple constructor) into
// a table, reporting whether it was actually added (false: already present,
// set semantics). Never retried — insertion is not idempotent.
func (c *Client) Insert(table, value string) (bool, error) {
	var resp MutateResponse
	if err := c.do("POST", "/insert", insertRequest{Table: table, Value: value}, &resp); err != nil {
		return false, err
	}
	return resp.Added, nil
}

// Delete removes every tuple of the table satisfying the predicate (with
// varName bound to the candidate tuple), returning the number removed.
func (c *Client) Delete(table, varName, predicate string) (int, error) {
	var resp MutateResponse
	if err := c.do("POST", "/delete", deleteRequest{Table: table, Var: varName, Predicate: predicate}, &resp); err != nil {
		return 0, err
	}
	return resp.Deleted, nil
}

// CreateIndex registers and builds a persistent hash index on the table's
// ordered attribute list.
func (c *Client) CreateIndex(table string, attrs ...string) error {
	return c.do("POST", "/index/create", indexRequest{Table: table, Attrs: attrs}, nil)
}

// DropIndex unregisters the persistent index on the table's ordered
// attribute list.
func (c *Client) DropIndex(table string, attrs ...string) error {
	return c.do("POST", "/index/drop", indexRequest{Table: table, Attrs: attrs}, nil)
}

// Stats fetches the server's counters.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.do("GET", "/stats", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health reports whether the server is accepting requests.
func (c *Client) Health() error {
	return c.do("GET", "/healthz", nil, nil)
}
