package server

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/results"
)

// Run and sweep replies are written by hand around records encoded once
// (runState.record): the bytes are exactly json.Marshal of the runView or
// sweepView with every record decoded into its Result, which
// TestRepliesMatchTheirStructs pins, but no reply reflects over a record
// again.

// encodeRecord is a settled record's one encoding.
func encodeRecord(res results.Result) []byte {
	// A record encoding/json refuses (a non-finite float) encodes as nil:
	// its run views carry no result, and a sweep lists it as null.
	b, _ := json.Marshal(res)
	return b
}

// appendRunView appends json.Marshal(v) with v.record in place of
// v.Result.
func appendRunView(dst []byte, v runView) []byte {
	dst = slices.Grow(dst, runViewSize+len(v.record))
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, v.ID)
	dst = append(dst, `,"status":`...)
	dst = appendString(dst, string(v.Status))
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, v.Cached)
	if v.record != nil {
		dst = append(dst, `,"result":`...)
		dst = append(dst, v.record...)
	}
	if v.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, v.Error)
	}
	return append(dst, '}')
}

// appendSweepView appends json.Marshal(v) with each run's record in place
// of its Result and, when v.listResults is set, the runs' records as
// Results.
func appendSweepView(dst []byte, v sweepView) []byte {
	size := runViewSize
	for _, rv := range v.Runs {
		size += runViewSize + len(rv.record)
		if v.listResults {
			size += len(rv.record)
		}
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, v.ID)
	dst = append(dst, `,"status":`...)
	dst = appendString(dst, string(v.Status))
	dst = appendField(dst, `,"total":`, v.Total)
	dst = appendField(dst, `,"done":`, v.Done)
	dst = appendField(dst, `,"failed":`, v.Failed)
	dst = appendField(dst, `,"cache_hits":`, v.CacheHits)
	dst = append(dst, `,"runs":[`...)
	for i, rv := range v.Runs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRunView(dst, rv)
	}
	dst = append(dst, ']')
	if v.listResults && len(v.Runs) > 0 {
		dst = append(dst, `,"results":[`...)
		for i, rv := range v.Runs {
			if i > 0 {
				dst = append(dst, ',')
			}
			if rv.record == nil {
				dst = append(dst, "null"...)
			}
			dst = append(dst, rv.record...)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// runViewSize bounds a run view's bytes besides its record: a 64-digit
// id, the longest status and the field names.
const runViewSize = 160

func appendField(dst []byte, name string, n int) []byte {
	return strconv.AppendInt(append(dst, name...), int64(n), 10)
}

// appendString appends s as json.Marshal writes it. Printable ASCII
// without quotes, backslashes or HTML characters is copied as is.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b >= 0x80 || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			enc, _ := json.Marshal(s)
			return append(dst, enc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// writeBody sends one rendered JSON reply, newline-terminated. A nil
// body (nothing could be encoded) sends the status alone.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if body != nil {
		// Two writes, never append: a sweep's final view is shared by
		// every concurrent GET.
		_, _ = w.Write(body)
		_, _ = w.Write(newline)
	}
}

var newline = []byte{'\n'}
