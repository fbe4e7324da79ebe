package service

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzJobSubmitBody drives POST /v1/jobs with arbitrary request bodies
// through the real handler stack (body limit, JSON decode, validation).
// Every input must produce an HTTP error response or a clean accept —
// never a handler panic. No graphs are registered, so even well-formed
// requests stop at validation and nothing executes.
func FuzzJobSubmitBody(f *testing.F) {
	f.Add([]byte(`{"graph_id":"g1","algo":"pr","iterations":5}`))
	f.Add([]byte(`{"graph_id":"g1","algo":"bfs","source":-1}`))
	f.Add([]byte(`{"algo":"nope"}`))
	f.Add([]byte(`{"iterations":-99999999999999999999}`))
	f.Add([]byte(`{"graph_id":"g1","algo":"pr","tiles":0,"pes":-3}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[]`))
	f.Add([]byte{0xFF, 0xFE, 0x00})
	f.Add([]byte(``))

	svc := New(Config{
		Workers:    1,
		QueueDepth: 2,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer svc.Close()
	handler := svc.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req) // panics fail the fuzz run
		switch rec.Code {
		case http.StatusAccepted:
			t.Fatalf("job accepted with no graphs registered: %q", body)
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// expected rejections
		default:
			t.Fatalf("unexpected status %d for body %q: %s", rec.Code, body, rec.Body.String())
		}
	})
}
