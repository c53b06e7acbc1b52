package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"tmdb"
)

// system is one engine behind a loopback HTTP server, with its client
// sessions opened and statements prepared.
type system struct {
	eng     *tmdb.Engine
	srv     *tmdb.Server
	hs      *http.Server
	served  chan struct{}
	clients []*tmdb.Client

	// loadMs and indexMs are the set-up's generate+seal and CreateIndex parts.
	loadMs, indexMs float64
}

// buildEngine is the set-up's engine part: generate and seal the data, create
// the workload's indexes and collect statistics.
func buildEngine(inst *instance, ds dataset, seed int64) (*system, error) {
	s := &system{}
	t0 := time.Now()
	s.eng = newEngine(ds, seed)
	s.loadMs = ms(time.Since(t0))
	t0 = time.Now()
	for _, ix := range inst.w.indexes {
		if err := s.eng.CreateIndex(ix[0], ix[1:]...); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	s.indexMs = ms(time.Since(t0))
	s.eng.Analyze()
	return s, nil
}

// setUp builds the engine, starts the server and opens nClients sessions, each
// preparing every statement (ad-hoc workloads prepare none).
func setUp(inst *instance, ds dataset, seed int64, nClients int) (*system, error) {
	s, err := buildEngine(inst, ds, seed)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	s.srv = tmdb.NewServer(s.eng, tmdb.ServerConfig{})
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	for i := 0; i < nClients; i++ {
		c := tmdb.NewServerClient("http://" + ln.Addr().String())
		if _, err := c.NewSession(tmdb.WireOptions{}); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if !inst.w.adhoc {
			for _, st := range inst.stmts {
				if _, err := c.Prepare(st.name, st.src); err != nil {
					s.close()
					return nil, fmt.Errorf("set-up: preparing %s: %w", st.name, err)
				}
			}
		}
		s.clients = append(s.clients, c)
	}
	return s, nil
}

// close drains and stops the server and waits for its goroutine. Closing
// twice, or closing a system that has no server, does nothing.
func (s *system) close() {
	if s.hs == nil {
		return
	}
	defer func() { s.hs = nil }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a drain that times out is cut by Close below
	_ = s.hs.Close()
	<-s.served
	http.DefaultClient.CloseIdleConnections()
}

// oracle holds the library-computed answer of every statement.
type oracle struct {
	inst     *instance
	expected [][]byte
}

// answer runs src through the library and returns the result's canonical JSON.
func answer(eng *tmdb.Engine, src string, opts tmdb.Options) ([]byte, error) {
	res, err := eng.Query(src, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	return json.Marshal(res.Value)
}

func newOracle(eng *tmdb.Engine, inst *instance) (*oracle, error) {
	o := &oracle{inst: inst, expected: make([][]byte, len(inst.stmts))}
	for i, st := range inst.stmts {
		want, err := answer(eng, st.src, tmdb.Options{})
		if err != nil {
			return nil, err
		}
		o.expected[i] = want
	}
	return o, nil
}

// verify reports whether a response is right. Reads of a table the workload
// mutates and writes are checked after the window instead.
func (o *oracle) verify(op op, got []byte) bool {
	if op.isWrite() || !o.inst.stmts[op.stmt].stable {
		return true
	}
	return bytes.Equal(got, o.expected[op.stmt])
}

// naiveMismatches compares every distinct statement's cost-based answer on eng
// with naive nested-loop evaluation, the project's correctness oracle. It
// returns how many it compared, how many differed and the first that did.
func naiveMismatches(eng *tmdb.Engine, inst *instance) (checked, bad int, first string, err error) {
	seen := make(map[string]bool)
	for _, st := range inst.stmts {
		if seen[st.src] {
			continue
		}
		seen[st.src] = true
		auto, err := answer(eng, st.src, tmdb.Options{})
		if err != nil {
			return checked, bad, first, err
		}
		naive, err := answer(eng, st.src, tmdb.Options{Strategy: tmdb.Naive})
		if err != nil {
			return checked, bad, first, err
		}
		checked++
		if !bytes.Equal(auto, naive) {
			if bad++; first == "" {
				first = st.src
			}
		}
	}
	return checked, bad, first, nil
}
