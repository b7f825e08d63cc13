package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzParseSubmission feeds parseSubmission arbitrary bodies, content
// types and query strings. It must never panic, and every spec it
// accepts must survive a JSON round trip unchanged: the journal stores
// accepted specs as JSON and recovery decodes them back. The seeds cover
// both submission paths, an edge list whose query names a NaN, and a
// JSON spec with an "engine" field, which specs no longer have.
func FuzzParseSubmission(f *testing.F) {
	spec := `{"graph":{"type":"path","n":8},"eps":0.5,"kappa":3,"rho":0.49`
	f.Add([]byte(spec+`}`), "application/json", "")
	f.Add([]byte(spec+`,"engine":"parallel"}`), "application/json", "")
	f.Add([]byte(` `+spec+`,"mode":"distributed"}`), "application/x-www-form-urlencoded", "")
	f.Add([]byte("3 2\n0 1\n1 2\n"), "text/plain", "eps=0.5&kappa=3&rho=0.49&name=up&timeout_ms=50")
	f.Add([]byte("3 2\n0 1\n1 2\n"), "text/plain", "eps=0.5&kappa=3&rho=NaN")
	f.Fuzz(func(t *testing.T, body []byte, contentType, query string) {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		r.URL.RawQuery = query
		r.Header.Set("Content-Type", contentType)
		spec, err := parseSubmission(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		var back JobSpec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("accepted spec %s does not decode: %v", data, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec changed in a JSON round trip: %+v -> %+v", spec, back)
		}
	})
}

// TestParseSubmissionRejectsEngine: a spec that names an engine is an
// unknown field now. The daemon answers 400 and stays healthy.
func TestParseSubmissionRejectsEngine(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{})
	defer shutdown()
	for name, sub := range map[string]struct{ ct, query, body string }{
		"engine field": {"application/json", "",
			`{"graph":{"type":"path","n":8},"eps":0.5,"kappa":3,"rho":0.49,"engine":"parallel"}`},
		"NaN rho": {"text/plain", "?eps=0.5&kappa=3&rho=NaN", "3 2\n0 1\n1 2\n"},
	} {
		resp, err := http.Post(url+"/v1/jobs"+sub.query, sub.ct, bytes.NewReader([]byte(sub.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after rejected submissions: %d", resp.StatusCode)
	}
}
