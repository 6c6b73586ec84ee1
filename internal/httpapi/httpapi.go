// Package httpapi is the shared plumbing of UpKit's HTTP control
// surfaces: one route table, one JSON error envelope, one body-reading
// discipline.
//
// Before this package, each /api/v1/* handler improvised its own error
// shape — http.Error plain text here, bare 404s there, a 400 or a 413
// for the same oversized body depending on the endpoint. Every handler
// registered through a Table now answers uniformly:
//
//   - errors are application/json envelopes:
//     {"error":{"code":"...","message":"..."}}
//   - a path that exists but not for the request's method answers
//     405 Method Not Allowed with an Allow header listing what does
//   - unknown paths answer an enveloped 404
//   - request bodies over the endpoint's bound answer an enveloped
//     413 Request Entity Too Large, whatever the endpoint
//
// The table does its own matching (literal paths) instead of wrapping
// http.ServeMux: the mux writes its 404/405 responses as plain text
// before a handler ever runs, which is exactly the inconsistency this
// package exists to remove.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"sort"
	"strings"
)

// Error codes used across UpKit's HTTP surfaces. Handlers may mint
// their own; these cover the envelope's common cases.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeUnsupportedMedia = "unsupported_media_type"
	CodeTooLarge         = "payload_too_large"
	CodeConflict         = "conflict"
	CodeInternal         = "internal"
)

// ErrorDetail is the envelope's inner object.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody is the JSON error envelope every UpKit API error uses.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// WriteJSON writes v as the response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the shared JSON error envelope.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// Errorf is WriteError with a formatted message.
func Errorf(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteError(w, status, code, fmt.Sprintf(format, args...))
}

// route is one registered (method, pattern) pair. A pattern is a
// literal path; leading and trailing slashes do not matter.
type route struct {
	method  string
	pattern string
	path    string // pattern without its outer slashes
	h       http.Handler
}

// Table is the unified route table: every handler mounted on it shares
// the envelope, the 405+Allow discipline, and the enveloped 404.
type Table struct {
	routes []route
}

// NewTable creates an empty route table.
func NewTable() *Table { return &Table{} }

// Handle registers h for method requests matching pattern.
// Registering the same (method, pattern) twice panics — a route table
// with silent shadowing is a routing bug waiting to be found in prod.
func (t *Table) Handle(method, pattern string, h http.Handler) {
	path := strings.Trim(pattern, "/")
	for _, rt := range t.routes {
		if rt.method == method && rt.path == path {
			panic(fmt.Sprintf("httpapi: duplicate route %s %s", method, pattern))
		}
	}
	t.routes = append(t.routes, route{method: method, pattern: pattern, path: path, h: h})
}

// HandleFunc is Handle for a plain handler function.
func (t *Table) HandleFunc(method, pattern string, h http.HandlerFunc) {
	t.Handle(method, pattern, h)
}

// ServeHTTP implements http.Handler: exact path match, enveloped
// 404 for unknown paths, 405 with an Allow header when the path exists
// under other methods. A request whose path matched — whatever its
// method — gets the route's registered pattern in r.Pattern, as
// http.ServeMux sets it, so a 405 is attributed to the route it hit;
// unknown paths leave it empty.
func (t *Table) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.Trim(r.URL.Path, "/")
	var allowed []string
	for i := range t.routes {
		rt := &t.routes[i]
		if rt.path != path {
			continue
		}
		r.Pattern = rt.pattern
		if rt.method != r.Method {
			allowed = append(allowed, rt.method)
			continue
		}
		rt.h.ServeHTTP(w, r)
		return
	}
	if len(allowed) > 0 {
		sort.Strings(allowed)
		w.Header().Set("Allow", strings.Join(allowed, ", "))
		WriteError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed; allowed: %s", r.Method, strings.Join(allowed, ", ")))
		return
	}
	WriteError(w, http.StatusNotFound, CodeNotFound, "no such endpoint: "+r.URL.Path)
}

// RequireContentType enforces an exact media type on a body-carrying
// request, answering an enveloped 415 itself when the header is missing
// or different. Parameters (charset=…) are tolerated.
func RequireContentType(w http.ResponseWriter, r *http.Request, want string) bool {
	ct := r.Header.Get("Content-Type")
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil || mt != want {
		WriteError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
			"Content-Type must be "+want)
		return false
	}
	return true
}

// DecodeJSON reads a JSON request body of at most maxBytes into v,
// enforcing Content-Type application/json. On failure it writes the
// enveloped error — 415 for the wrong media type, 413 when the body
// exceeds the bound, 400 for malformed JSON — and returns false. This
// is the single place oversized bodies are classified, so every
// endpoint answers 413 the same way.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	if !RequireContentType(w, r, "application/json") {
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes)).Decode(v); err != nil {
		if isTooLarge(err) {
			Errorf(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds %d bytes", maxBytes)
			return false
		}
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// ReadBody reads a raw request body of at most maxBytes. On failure it
// writes the enveloped error — 413 past the bound, 400 otherwise — and
// returns ok=false.
func ReadBody(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		if isTooLarge(err) {
			Errorf(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds %d bytes", maxBytes)
			return nil, false
		}
		WriteError(w, http.StatusBadRequest, CodeBadRequest, "read body: "+err.Error())
		return nil, false
	}
	return body, true
}

func isTooLarge(err error) bool {
	var tooLarge *http.MaxBytesError
	return errors.As(err, &tooLarge)
}
