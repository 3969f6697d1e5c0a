package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"kwmds/internal/gen"
	"kwmds/internal/graph"
	"kwmds/internal/graphio"
)

// fuzzInlineVertices caps inline graphs (and mutate growth) in the HTTP
// fuzzers, so that no input can make one solve expensive.
const fuzzInlineVertices = 64

// serve runs one request through h in-process and returns the recorded
// response.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// FuzzSolveRequest drives arbitrary bodies through POST /v1/solve. The
// handler must answer every body with a status the API documents — never a
// panic or a 5xx — and a 200 must carry a SolveResponse whose members, when
// asked for, dominate the graph the request addressed. The seed corpus
// under testdata/fuzz/FuzzSolveRequest holds the bodies of
// TestSolvePipelines and TestSolveMalformedBodies.
func FuzzSolveRequest(f *testing.F) {
	g, err := gen.UnitDisk(200, 0.12, 1)
	if err != nil {
		f.Fatal(err)
	}
	srv := New(Config{
		Workers: 2, CacheEntries: 32, MaxInlineVertices: fuzzInlineVertices,
		Graphs: map[string]*graph.Graph{"udg-200": g},
	})
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := serve(h, http.MethodPost, "/v1/solve", body)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		var sr graphio.SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			t.Fatalf("200 body is not a SolveResponse: %v (%s)", err, rec.Body.Bytes())
		}
		if sr.Members == nil || sr.Algo == "frac" {
			return
		}
		// Only a decoded, valid request gets a 200, so both decodes below
		// succeed; the inline graph is the one the server built.
		req, err := graphio.DecodeSolveRequest(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("200 for a body the decoder refuses: %v", err)
		}
		addressed := g
		if req.GraphRef == "" {
			if addressed, err = req.BuildGraph(fuzzInlineVertices); err != nil {
				t.Fatalf("200 for an inline graph BuildGraph refuses: %v", err)
			}
		}
		inDS := make([]bool, addressed.N())
		for _, v := range sr.Members {
			if v < 0 || v >= addressed.N() || inDS[v] {
				t.Fatalf("members %v: out of range or repeated id %d", sr.Members, v)
			}
			inDS[v] = true
		}
		if len(sr.Members) != sr.Size {
			t.Fatalf("%d members, size %d", len(sr.Members), sr.Size)
		}
		if !addressed.IsDominatingSet(inDS) {
			t.Fatalf("%s members %v do not dominate the addressed graph", sr.Algo, sr.Members)
		}
	})
}

// FuzzMutateRequest drives arbitrary bodies through POST
// /v1/graphs/ring/mutate on a fresh 6-cycle server per input. A refused
// batch must leave the graph's (epoch, digest) exactly as it was, and an
// accepted one must advance the epoch by exactly one and report the digest
// of its new graph recomputed from scratch. The seed corpus
// under testdata/fuzz/FuzzMutateRequest holds the bodies of
// TestMutateLifecycle and TestMutateMalformedBodies.
func FuzzMutateRequest(f *testing.F) {
	ring := graph.MustNew(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}})
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{
			Workers: 1, MaxInlineVertices: fuzzInlineVertices,
			Graphs: map[string]*graph.Graph{"ring": ring},
		})
		p, _ := srv.lookup("ring")
		_, digest0, epoch0, _ := p.snapshot()
		rec := serve(srv.Handler(), http.MethodPost, "/v1/graphs/ring/mutate", body)
		_, digest1, epoch1, _ := p.snapshot()
		switch rec.Code {
		case http.StatusOK:
			if epoch1 != epoch0+1 {
				t.Fatalf("accepted batch moved the epoch %d → %d", epoch0, epoch1)
			}
			// The handler moved the digest incrementally; recompute it
			// from scratch rather than trust the field it wrote.
			fresh := graphio.Digest(p.dyn.Graph())
			var mr graphio.MutateResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil || mr.Epoch != epoch1 || mr.Digest != fresh || digest1 != fresh {
				t.Fatalf("200 body %s does not report epoch %d, digest %s (err %v)", rec.Body.Bytes(), epoch1, fresh, err)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if epoch1 != epoch0 || digest1 != digest0 {
				t.Fatalf("refused batch (status %d) moved (epoch, digest) from (%d, %s) to (%d, %s)",
					rec.Code, epoch0, digest0, epoch1, digest1)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
	})
}
