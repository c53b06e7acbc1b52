package main

import (
	"fmt"
	"sync"
	"time"
)

// runClosedLoop drives each target with its own op sequence for d: a client
// sends its next op only once the previous one has returned. It returns the
// merged samples and the time from the first send to the last return.
func runClosedLoop(targets []target, gens []*opGen, verify func(op, []byte) bool, d time.Duration) (*recorder, time.Duration) {
	recs := make([]*recorder, len(targets))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range targets {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(t target, g *opGen, rec *recorder) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := g.next()
				t0 := time.Now()
				got, err := t.do(o)
				lat := time.Since(t0)
				ok := err == nil && verify(o, got)
				if !ok && rec.firstFailure == "" {
					rec.firstFailure = describeFailure(o, err)
				}
				rec.add(o.class, lat, ok)
			}
		}(targets[i], gens[i], recs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := newRecorder()
	for _, rec := range recs {
		all.merge(rec)
	}
	return all, elapsed
}

func describeFailure(o op, err error) string {
	if err != nil {
		return fmt.Sprintf("%s %q: %v", o.class, o.text, err)
	}
	return fmt.Sprintf("%s %q: result differs from the library's answer", o.class, o.text)
}
