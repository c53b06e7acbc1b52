package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tmdb/internal/core"
	"tmdb/internal/engine"
	"tmdb/internal/planner"
	"tmdb/internal/value"
)

// encodeReference is the response writeResult sent before its hand-written
// envelope: the result marshaled by json.Marshal, then the whole
// QueryResponse through a json.Encoder.
func encodeReference(t *testing.T, reqID string, res *engine.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res.Value)
	if err != nil {
		t.Fatalf("reference encoding of %s: %v", res.Value, err)
	}
	alt := res.Alt
	if alt == "base" {
		alt = ""
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(QueryResponse{
		RequestID: reqID, Result: raw, Rows: res.Value.Len(), Strategy: res.Strategy.String(), Alt: alt,
		Joins: res.Joins.String(), Access: res.Access.String(), Auto: res.Auto,
		CacheHit: res.CacheHit, DurationNs: res.Duration.Nanoseconds(), EvalSteps: res.EvalSteps,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnvelopeMatchesEncoder pins the hand-written QueryResponse envelope
// byte for byte against json.NewEncoder(w).Encode(QueryResponse{…}), through
// the handler's write path, over results that need every escaping and
// number-formatting rule and every optional field.
func TestEnvelopeMatchesEncoder(t *testing.T) {
	str := func(ss ...string) value.Value {
		es := make([]value.Value, len(ss))
		for i, s := range ss {
			es[i] = value.Str(s)
		}
		return value.SetOf(es...)
	}
	results := map[string]value.Value{
		"escaped strings": str("<a&b>", "line sep ", "bad\xff\xfeutf8", "ctl\x00\x01\x1f\t\n", `q"b\`, "héllo"),
		"floats":          value.SetOf(value.Float(0.1), value.Float(1e21), value.Float(math.Copysign(0, -1)), value.Float(1e-7), value.Float(-2.5)),
		"ints":            value.SetOf(value.Int(0), value.Int(math.MaxInt64), value.Int(math.MinInt64), value.Int(-17)),
		"nested": value.SetOf(
			value.TupleOf(value.F("a", value.Int(1)), value.F("s", value.SetOf(value.TupleOf(value.F("k<&>", value.Str("v")))))),
			value.TupleOf(value.F("a", value.Int(2)), value.F("s", value.EmptySet), value.F("l", value.ListOf(value.True, value.Null))),
		),
		"empty set": value.EmptySet,
		"tuple":     value.TupleOf(value.F("only", value.False)),
	}
	variants := []engine.Result{
		{Strategy: core.StrategyNestJoin, Joins: planner.ImplHash, Access: planner.AccessIndex, Auto: true, CacheHit: true,
			Duration: 1234567 * time.Nanosecond, EvalSteps: 42},
		{Strategy: core.StrategyNaive, Alt: "base", Duration: -1},
		{Strategy: core.StrategyOuterJoin, Alt: "rewrite", Joins: planner.ImplMerge, EvalSteps: math.MaxInt64},
		{Strategy: core.StrategyKim, Alt: `order:(x (y "z"))<&>`, Access: planner.AccessScan},
	}
	for name, v := range results {
		for i, res := range variants {
			res.Value = v
			reqID := "req-" + name
			want := encodeReference(t, reqID, &res)
			got, err := appendQueryResponse([]byte("prefix"), reqID, &res)
			if err != nil || string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
				t.Errorf("%s #%d: envelope =\n%q, %v\nwant\n%q", name, i, got, err, want)
			}
			rec := httptest.NewRecorder()
			(&Server{}).writeResult(rec, reqID, &res)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) ||
				rec.Header().Get("Content-Type") != "application/json" || rec.Header().Get("X-Request-ID") != reqID {
				t.Errorf("%s #%d: writeResult = %d %v %q", name, i, rec.Code, rec.Header(), rec.Body.Bytes())
			}
		}
	}
}

// TestEnvelopeNaNIsInternalError pins that a result with no JSON encoding
// still answers 500 internal, with the message the json.Marshal path gave.
func TestEnvelopeNaNIsInternalError(t *testing.T) {
	res := &engine.Result{Value: value.SetOf(value.TupleOf(value.F("x", value.Float(math.NaN()))))}
	rec := httptest.NewRecorder()
	(&Server{}).writeResult(rec, "req-7", res)
	_, marshalErr := json.Marshal(res.Value)
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(errorResponse{
		RequestID: "req-7",
		Error:     wireError{Code: "internal", Message: "encoding result: " + marshalErr.Error()},
	})
	if rec.Code != http.StatusInternalServerError || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
		t.Errorf("NaN result: %d %q, want 500 %q", rec.Code, rec.Body.Bytes(), want.Bytes())
	}
}
