package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vliwbind"
	"vliwbind/internal/leakcheck"
)

// FuzzServeRequest drives /bind with arbitrary request bodies and with
// requests assembled from arbitrary DFG text, datapath specs, topology,
// machine knobs and budget fields. The handler must never panic or leak
// a goroutine, every response must be one of the four outcomes, and
// every 200 is re-checked out of band: its binding, re-evaluated with
// EvaluateBinding on the request's own graph and datapath, must pass
// AuditResult and reproduce the reported L and moves. The handler runs
// no audit of its own, so this is the guard on the facade's promise
// that everything it returns is certified. Each body is sent twice to a
// server with a result store, so store hits are checked as well as
// searches. The seeds here and under testdata/fuzz run on every `go
// test`; fuzz deeper with `go test -fuzz=FuzzServeRequest
// ./internal/server`.
func FuzzServeRequest(f *testing.F) {
	ewf := "dfg f\nin x y\nop a add x y\nop b mul a x\nop c sub b y\nop d muli 0.5 c\nout d\n"
	f.Add([]byte(`{"kernel":"EWF","dp":"[2,1|1,1]"}`), "ARF", "", "[2,1|2,1]", "", "", 0, 0, 0, int64(0), int64(0))
	f.Add([]byte(`{"dfg":"dfg g\nin x\nop a neg x\nout a\n","dp":"[1,1]"}`), "", ewf, "[1,1|1,1]", "ring", "init", 0, 2, 1, int64(0), int64(0))
	f.Add([]byte(`{"kernel":"DCT-DIT-2","dp":"[2,1|2,1]","budget_ms":15}`), "EWF", "", "[1,1|1,1|1,1]@ring:1", "", "bind", 0, 0, 0, int64(0), int64(15))
	f.Add([]byte(`{"kernel":"ARF","dp":"[2,1|2,1]","deadline_ms":1}`), "", ewf, "[1,1|1,1|1,1|1,1]", "p2p", "", 0, 0, 2, int64(100), int64(0))
	f.Add([]byte(`{"kernel":"ARF","dp":"[2,1|2,1]","unknown":1}`), "FFT", "", "[2,1]@bus:1@move:2,1", "", "", 1, 0, 0, int64(0), int64(0))
	f.Add([]byte(`{"kernel":"ARF","dfg":"x","dp":"[2,1]"}`), "EWF", "", "[99999,1|1,1]", "", "anneal", 1<<30, 1<<30, 1<<30, int64(-1), int64(1<<62))
	f.Add([]byte(`not json`), "", "dfg g\nin x\nop a muli nan x\nout a\n", "[0,0]", "none", "", -1, -1, -1, int64(1<<62), int64(-5))
	f.Fuzz(func(t *testing.T, raw []byte, kernel, dfgText, dp, topology, algo string,
		buses, moveLat, linkCap int, deadlineMS, budgetMS int64) {
		leakcheck.Check(t)
		structured, err := json.Marshal(bindRequest{Kernel: kernel, DFG: dfgText, DP: dp,
			Buses: buses, MoveLat: moveLat, Topology: topology, LinkCap: linkCap,
			Algo: algo, DeadlineMS: deadlineMS, BudgetMS: budgetMS})
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, Config{Workers: 1, DefaultDeadline: 200 * time.Millisecond,
			MaxDeadline: 200 * time.Millisecond, Store: vliwbind.NewMemoryStore(0)})
		for _, body := range [][]byte{raw, raw, structured, structured} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/bind", bytes.NewReader(body)))
			checkServed(t, s, body, rec)
		}
	})
}

// checkServed classifies one response and certifies a 200 out of band.
func checkServed(t *testing.T, s *Server, body []byte, rec *httptest.ResponseRecorder) {
	t.Helper()
	var resp bindResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("status %d with a non-JSON body %q: %v", rec.Code, rec.Body, err)
	}
	served := resp.Outcome == OutcomeOK || resp.Outcome == OutcomeDegraded
	if served != (rec.Code == http.StatusOK) || (!served && resp.Outcome != OutcomeRejected && resp.Outcome != OutcomeFailed) {
		t.Fatalf("status %d with outcome %q", rec.Code, resp.Outcome)
	}
	if !served {
		return
	}
	if !resp.Audited {
		t.Fatalf("200 without audited: %s", rec.Body)
	}
	// The handler decoded this body the same way before it served it.
	var req bindRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("served a body that does not decode: %v", err)
	}
	g, dp, _, err := s.parseJob(req)
	if err != nil {
		t.Fatalf("served a job that does not parse: %v", err)
	}
	res, err := vliwbind.EvaluateBinding(g, dp, resp.Binding)
	if err != nil {
		t.Fatalf("served binding %v does not evaluate: %v", resp.Binding, err)
	}
	if err := vliwbind.AuditResult(res); err != nil {
		t.Fatalf("served binding %v fails the audit: %v", resp.Binding, err)
	}
	if res.L() != resp.L || res.Moves() != resp.Moves {
		t.Fatalf("served (L=%d, moves=%d), binding re-evaluates to (L=%d, moves=%d)",
			resp.L, resp.Moves, res.L(), res.Moves())
	}
}
