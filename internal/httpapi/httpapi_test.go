package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newTestTable() *Table {
	t := NewTable()
	t.HandleFunc(http.MethodGet, "/api/v1/things", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"list": "all"})
	})
	t.HandleFunc(http.MethodPost, "/api/v1/things", func(w http.ResponseWriter, r *http.Request) {
		var body map[string]any
		if !DecodeJSON(w, r, 64, &body) {
			return
		}
		WriteJSON(w, http.StatusCreated, body)
	})
	t.HandleFunc(http.MethodGet, "/api/v1/things/42", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"pattern": r.Pattern})
	})
	return t
}

func do(t *testing.T, table *Table, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	table.ServeHTTP(rec, req)
	return rec
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q, want application/json", ct)
	}
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body %q is not an envelope: %v", rec.Body.String(), err)
	}
	if body.Error.Code == "" || body.Error.Message == "" {
		t.Fatalf("envelope incomplete: %+v", body)
	}
	return body
}

func TestTableRoutesAndParams(t *testing.T) {
	table := newTestTable()
	rec := do(t, table, http.MethodGet, "/api/v1/things/42", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("route: %d %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"pattern":"/api/v1/things/42"`) {
		t.Fatalf("r.Pattern is not the matched route's pattern: %s", rec.Body.String())
	}
	if rec = do(t, table, http.MethodGet, "/api/v1/things/43", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unregistered sibling path: %d, want 404", rec.Code)
	}
}

func TestTableNotFoundEnvelope(t *testing.T) {
	table := newTestTable()
	rec := do(t, table, http.MethodGet, "/api/v1/nope", "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if env := decodeEnvelope(t, rec); env.Error.Code != CodeNotFound {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeNotFound)
	}
}

func TestTableMethodNotAllowed(t *testing.T) {
	table := newTestTable()
	rec := do(t, table, http.MethodDelete, "/api/v1/things", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET, POST" {
		t.Fatalf("Allow = %q, want \"GET, POST\"", allow)
	}
	if env := decodeEnvelope(t, rec); env.Error.Code != CodeMethodNotAllowed {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

func TestDecodeJSONTooLarge(t *testing.T) {
	table := newTestTable()
	rec := do(t, table, http.MethodPost, "/api/v1/things",
		`{"pad":"`+strings.Repeat("A", 100)+`"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if env := decodeEnvelope(t, rec); env.Error.Code != CodeTooLarge {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeTooLarge)
	}
}

func TestDecodeJSONWrongContentType(t *testing.T) {
	table := newTestTable()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/things", strings.NewReader("{}"))
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	table.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("status = %d, want 415", rec.Code)
	}
}

func TestDecodeJSONBadBody(t *testing.T) {
	table := newTestTable()
	rec := do(t, table, http.MethodPost, "/api/v1/things", "not json")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if env := decodeEnvelope(t, rec); env.Error.Code != CodeBadRequest {
		t.Fatalf("code = %q", env.Error.Code)
	}
}

func TestDuplicateRoutePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	table := NewTable()
	h := func(w http.ResponseWriter, r *http.Request) {}
	table.HandleFunc(http.MethodGet, "/x/a", h)
	table.HandleFunc(http.MethodGet, "/x/a", h)
}
