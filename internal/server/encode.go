package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"tmdb/internal/engine"
	"tmdb/internal/value"
)

// The /query and /execute hot path: writeResult appends the QueryResponse
// envelope and the result into one pooled buffer instead of marshaling the
// result and then re-encoding it through a json.Encoder. The bytes are those
// json.NewEncoder(w).Encode(QueryResponse{…}) writes: the struct's field
// order, alt omitted when empty, and a trailing newline.

// respBufs recycles response buffers; one grown past maxPooledResp (a large
// result) is left to the collector rather than pinned.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResp = 64 << 10

// valueType names the result type in encoding errors, as json.Marshal does.
var valueType = reflect.TypeOf(value.Value{})

// writeResult renders an engine result as a QueryResponse.
func (s *Server) writeResult(w http.ResponseWriter, reqID string, res *engine.Result) {
	bp := respBufs.Get().(*[]byte)
	b, err := appendQueryResponse((*bp)[:0], reqID, res)
	if err == nil {
		setJSONHeaders(w.Header(), reqID)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
	}
	if cap(b) <= maxPooledResp {
		*bp = b[:0]
		respBufs.Put(bp)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, reqID, "internal", "encoding result: %v",
			&json.MarshalerError{Type: valueType, Err: err})
	}
}

// appendQueryResponse appends the QueryResponse document of res, newline
// included, to dst.
func appendQueryResponse(dst []byte, reqID string, res *engine.Result) ([]byte, error) {
	dst = append(dst, `{"request_id":`...)
	dst = appendString(dst, reqID)
	dst = append(dst, `,"result":`...)
	dst, err := value.AppendJSON(dst, res.Value)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"rows":`...)
	dst = strconv.AppendInt(dst, int64(res.Value.Len()), 10)
	dst = append(dst, `,"strategy":`...)
	dst = appendString(dst, res.Strategy.String())
	if res.Alt != "" && res.Alt != "base" {
		dst = append(dst, `,"alt":`...)
		dst = appendString(dst, res.Alt)
	}
	dst = append(dst, `,"joins":`...)
	dst = appendString(dst, res.Joins.String())
	dst = append(dst, `,"access":`...)
	dst = appendString(dst, res.Access.String())
	dst = append(dst, `,"auto":`...)
	dst = strconv.AppendBool(dst, res.Auto)
	dst = append(dst, `,"cache_hit":`...)
	dst = strconv.AppendBool(dst, res.CacheHit)
	dst = append(dst, `,"duration_ns":`...)
	dst = strconv.AppendInt(dst, res.Duration.Nanoseconds(), 10)
	dst = append(dst, `,"eval_steps":`...)
	dst = strconv.AppendInt(dst, res.EvalSteps, 10)
	return append(dst, "}\n"...), nil
}

// appendString appends s as a JSON string, escaped as encoding/json does.
func appendString(dst []byte, s string) []byte {
	b, _ := value.AppendJSON(dst, value.Str(s)) // a string always encodes
	return b
}
