package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rasc/internal/analysis"
)

// FuzzCheckRequest posts arbitrary bytes as the body of POST /v1/check
// to a handler over a fresh engine. The body is the daemon's only
// untrusted input: whatever it holds, the handler must not panic, and it
// must answer with a JSON body and one of the statuses the protocol
// names — 200, 400 (undecodable body, unknown field or trailing data),
// 413 (body too large) or 422 (the engine refused the request).
func FuzzCheckRequest(f *testing.F) {
	valid, err := json.Marshal(CheckRequest{Upserts: []FilePayload{{Name: "a.go", Src: srvASrc}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"program":"empty"}`))
	f.Add([]byte(`{"program":"p"}{"reset":true}`))
	for _, body := range unknownFieldBodies {
		f.Add([]byte(body.json))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := NewHandler(HandlerConfig{Engine: analysis.NewEngine(analysis.EngineConfig{})})
		rec := httptest.NewRecorder()
		h.Root().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d: body is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
	})
}
