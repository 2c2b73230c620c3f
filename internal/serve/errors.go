// The error side of every reply. One table maps the typed errors of the
// layers below to HTTP statuses, one writer answers with it, and one
// body reader hands every handler its request body under the route's
// cap, with errors the table types. A handler that finds a fault by its
// own check of the request (a wrong feature count, params that do not
// decode, a path naming no scenario) writes that 400, 404 or 409 itself;
// every error that may be typed goes through writeErr, so the same error
// means the same status on every route.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"nfvxai/internal/core"
	"nfvxai/internal/feed"
	"nfvxai/internal/registry"
	"nfvxai/internal/xai"
)

// errorStatus is the error-to-status table. statusOf answers the first
// entry found in an error's chain.
var errorStatus = []struct {
	err    error
	status int
}{
	{registry.ErrNotFound, http.StatusNotFound},
	{registry.ErrArtifactNotFound, http.StatusNotFound},
	{feed.ErrFeedNotFound, http.StatusNotFound},
	{registry.ErrCorruptArtifact, http.StatusBadRequest},
	{registry.ErrArtifactVersion, http.StatusBadRequest},
	{xai.ErrUnknownMethod, http.StatusBadRequest},
	{xai.ErrInvalidOptions, http.StatusBadRequest},
	{core.ErrUnknownFeature, http.StatusBadRequest},
	{registry.ErrNotReady, http.StatusConflict},
	{registry.ErrExists, http.StatusConflict},
	{xai.ErrUnsupportedModel, http.StatusConflict},
	{core.ErrScenarioExists, http.StatusConflict},
	{feed.ErrFeedExists, http.StatusConflict},
	{feed.ErrFeedClosed, http.StatusConflict},
	// Back off and retry here.
	{feed.ErrTooManyFeeds, http.StatusTooManyRequests},
	{errJobTableFull, http.StatusTooManyRequests},
	// Retry later, or on another node.
	{errSaturated, http.StatusServiceUnavailable},
	{errShuttingDown, http.StatusServiceUnavailable},
	{registry.ErrStoreUnavailable, http.StatusServiceUnavailable},
	{context.Canceled, http.StatusServiceUnavailable},
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
}

// badRequest marks an error as a fault in the request itself: a
// malformed body, a bad spec, a scenario a body names that does not
// exist. The table answers it 400 unless its chain holds an entry (a
// name already taken stays a 409). Its text is the wrapped error's.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// statusOf is the status of the reply that carries err: 413 for a body
// over its cap, else the table's first entry in err's chain, else 400
// for a badRequest, else 500.
func statusOf(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	for _, e := range errorStatus {
		if errors.Is(err, e.err) {
			return e.status
		}
	}
	if errors.As(err, new(badRequest)) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// writeErr answers err with the status statusOf gives it.
func writeErr(w http.ResponseWriter, err error) {
	writeErrorBody(w, statusOf(err), map[string]any{"error": err.Error()})
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorBody(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// writeErrorBody answers an error object. The request id was echoed onto
// the response headers by ServeHTTP; repeating it in the body lets
// clients that only log bodies stitch multi-node traces together.
func writeErrorBody(w http.ResponseWriter, status int, body map[string]any) {
	if rid := w.Header().Get(HeaderRequestID); rid != "" {
		body["request_id"] = rid
	}
	writeJSON(w, status, body)
}

// muxErrorWriter carries the mux's own reply to a request no pattern
// applies to. It answers the mux's 404 and 405 with the API's JSON error
// (the 405 keeps the Allow header the mux set) and drops the mux's
// plain-text body; any other reply, the redirect to a clean path, passes
// through.
type muxErrorWriter struct {
	http.ResponseWriter
	r       *http.Request
	replied bool
}

func (m *muxErrorWriter) WriteHeader(status int) {
	switch status {
	case http.StatusNotFound:
		m.reply(status, "no route for %s %s", m.r.Method, m.r.URL.Path)
	case http.StatusMethodNotAllowed:
		m.reply(status, "method %s not allowed on %s (allowed: %s)", m.r.Method, m.r.URL.Path, m.Header().Get("Allow"))
	default:
		m.ResponseWriter.WriteHeader(status)
	}
}

func (m *muxErrorWriter) reply(status int, format string, args ...any) {
	m.replied = true
	m.Header().Del("X-Content-Type-Options")
	writeError(m.ResponseWriter, status, format, args...)
}

func (m *muxErrorWriter) Write(b []byte) (int, error) {
	if m.replied {
		return len(b), nil
	}
	return m.ResponseWriter.Write(b)
}

// bodyLimit is the cap on r's body: MaxArtifactBytes on artifact import,
// MaxJSONBytes everywhere else.
func bodyLimit(r *http.Request) int64 {
	if r.Method == http.MethodPost && r.URL.Path == importPath {
		return MaxArtifactBytes
	}
	return MaxJSONBytes
}

// readBody reads r's whole body into one buffer sized from its
// Content-Length; a body of unknown length grows the buffer, still
// capped by the http.MaxBytesReader ServeHTTP put on it. A body over
// its cap is a 413 naming the cap wherever its extra bytes sit, and a
// Content-Length over the cap is refused before a byte is read.
func readBody(r *http.Request) ([]byte, error) {
	limit := bodyLimit(r)
	if r.ContentLength > limit {
		return nil, fmt.Errorf("request body exceeds %d bytes: %w", limit, &http.MaxBytesError{Limit: limit})
	}
	if r.Body == nil {
		return nil, nil
	}
	buf := bytes.NewBuffer(make([]byte, 0, max(r.ContentLength, 0)+bytes.MinRead))
	if _, err := buf.ReadFrom(r.Body); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("request body exceeds %d bytes: %w", limit, err)
		}
		return nil, badRequest{fmt.Errorf("reading request body: %w", err)}
	}
	return buf.Bytes(), nil
}

// readJSON decodes r's body into v (decodeJSON); strict rejects unknown
// object keys.
func readJSON(r *http.Request, v any, strict bool) error {
	data, err := readBody(r)
	if err != nil {
		return err
	}
	if err := decodeJSON(data, v, strict); err != nil {
		return badRequest{fmt.Errorf("invalid JSON: %w", err)}
	}
	return nil
}

// decodeJSON decodes data into v. data must hold one JSON value and
// nothing after it but whitespace.
func decodeJSON(data []byte, v any, strict bool) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if end := dec.InputOffset(); len(bytes.TrimLeft(data[end:], " \t\r\n")) > 0 {
		return fmt.Errorf("data after the JSON value at offset %d", end)
	}
	return nil
}
