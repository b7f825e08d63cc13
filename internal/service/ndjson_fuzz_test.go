package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// The two NDJSON readers — the batch query body of POST
// /v1/jobs/{id}/query and the edge-delta body of PATCH
// /v1/jobs/{id}/edges — read untrusted bytes line by line inside their
// handlers, so the fuzz targets drive the handlers in process through
// httptest against one finished 5×5 grid job. Neither may panic, and
// every body must get either a clean rejection (a 4xx the contract
// names, with a JSON error) or an answer that is right.

// fuzzJob boots an in-memory server, builds the 5×5 grid job and
// returns the server's handler and the job.
func fuzzJob(f *testing.F) (http.Handler, *Job) {
	s := New(Options{SchedWorkers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	job, err := s.Submit(JobSpec{Graph: GraphSpec{Type: "grid", Rows: 5, Cols: 5}, Eps: 0.5, Kappa: 3, Rho: 0.49})
	if err != nil {
		f.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		f.Fatal("fuzz job did not finish within 60s")
	}
	if job.State() != StateDone {
		f.Fatalf("fuzz job finished %s", job.State())
	}
	return s.Handler(), job
}

// serve runs one request through the handler.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// checkRejection fails unless a response with a non-2xx status has one
// of the allowed codes and carries a JSON error message.
func checkRejection(t *testing.T, rec *httptest.ResponseRecorder, body []byte, allowed ...int) {
	t.Helper()
	for _, code := range allowed {
		if rec.Code == code {
			var e apiError
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("body %q: status %d without a JSON error: %q", body, rec.Code, rec.Body)
			}
			return
		}
	}
	t.Fatalf("body %q: status %d, want 200 or one of %v: %q", body, rec.Code, allowed, rec.Body)
}

// FuzzQueryBatchReader: a batch either answers every pair with the
// distance the job's point query gives, or is rejected with 400.
func FuzzQueryBatchReader(f *testing.F) {
	h, job := fuzzJob(f)
	for _, seed := range []string{
		"{\"u\":0,\"v\":24}\n{\"u\":5,\"v\":9}\n",
		"{\"u\":3,\"v\":3}",
		"",
		"not json\n",
		"{\"u\":0}\n",
		"{\"u\":-1,\"v\":2}\n",
		"{\"u\":0,\"v\":25}\n",
		"{\"u\":1.5,\"v\":2}\n",
		"[1,2]\n{\"u\":1,\"v\":2}\n",
	} {
		f.Add([]byte(seed))
	}
	n := job.GraphN()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(h, http.MethodPost, "/v1/jobs/"+job.ID+"/query", body)
		if rec.Code != http.StatusOK {
			checkRejection(t, rec, body, http.StatusBadRequest)
			return
		}
		pool := job.QueryPool()
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			var a queryAnswer
			if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
				t.Fatalf("body %q: answer line %q: %v", body, sc.Bytes(), err)
			}
			if a.U < 0 || a.U >= n || a.V < 0 || a.V >= n {
				t.Fatalf("body %q: answer for out-of-range pair %+v", body, a)
			}
			if want := wireDist(pool.Dist(a.U, a.V)); a.Dist != want {
				t.Fatalf("body %q: batch dist(%d,%d) = %d, point query %d", body, a.U, a.V, a.Dist, want)
			}
		}
	})
}

// FuzzEdgesPatchReader: a delta batch is applied (200), rejected as
// malformed (400) or refused as conflicting with the graph (409). An
// applied batch is undone by its inverse, which must bring the job back
// to its original spanner fingerprint, so every input starts from the
// same graph.
func FuzzEdgesPatchReader(f *testing.F) {
	h, job := fuzzJob(f)
	for _, seed := range []string{
		"{\"op\":\"delete\",\"u\":0,\"v\":1}\n{\"op\":\"insert\",\"u\":0,\"v\":2}\n",
		"{\"op\":\"insert\",\"u\":3,\"v\":24}",
		"",
		"not json\n",
		"{\"op\":\"insert\",\"u\":0}\n",
		"{\"op\":\"toggle\",\"u\":0,\"v\":2}\n",
		"{\"op\":\"insert\",\"u\":0,\"v\":99}\n",
		"{\"op\":\"insert\",\"u\":3,\"v\":3}\n",
		"{\"op\":\"insert\",\"u\":0,\"v\":1}\n",
		"{\"op\":\"insert\",\"u\":0,\"v\":7}\n{\"op\":\"delete\",\"u\":0,\"v\":7}\n",
		"{\"op\":\"insert\",\"u\":4294967296,\"v\":7}\n",
	} {
		f.Add([]byte(seed))
	}
	target := "/v1/jobs/" + job.ID + "/edges"
	fingerprint := func() string { return job.View().Result.Fingerprint }
	original := fingerprint()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(h, http.MethodPatch, target, body)
		if rec.Code != http.StatusOK {
			checkRejection(t, rec, body, http.StatusBadRequest, http.StatusConflict)
			if got := fingerprint(); got != original {
				t.Fatalf("body %q: rejected patch changed the fingerprint %s -> %s", body, original, got)
			}
			return
		}
		// The handler accepted every line, so the same decoder reads the
		// same operations back; the inverse swaps inserts and deletes.
		var inverse bytes.Buffer
		dec := json.NewDecoder(bytes.NewReader(body))
		enc := json.NewEncoder(&inverse)
		for {
			var op struct {
				Op   string `json:"op"`
				U, V int32
			}
			if err := dec.Decode(&op); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("body %q was accepted but does not decode: %v", body, err)
			}
			op.Op = map[string]string{"insert": "delete", "delete": "insert"}[op.Op]
			enc.Encode(op)
		}
		if undo := serve(h, http.MethodPatch, target, inverse.Bytes()); undo.Code != http.StatusOK {
			t.Fatalf("body %q: its inverse %q was refused: %d %q", body, inverse.Bytes(), undo.Code, undo.Body)
		}
		if got := fingerprint(); got != original {
			t.Fatalf("body %q and its inverse left fingerprint %s, want %s", body, got, original)
		}
	})
}
