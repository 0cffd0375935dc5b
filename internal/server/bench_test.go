package server

// Served-latency trajectory for BENCH_pr9.json: a warm store hit
// through the full HTTP stack (decode, admission, store lookup, the
// facade's one audit of the adopted hit, encode) versus a cold bind
// through the same stack. The gate asserts the shared cross-request
// tier keeps paying for itself behind the daemon's front door.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vliwbind"
)

func benchServer(b *testing.B, store *vliwbind.ResultStore) *Server {
	b.Helper()
	s, err := New(Config{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func serveOnce(b *testing.B, s *Server, wantSource string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/bind", strings.NewReader(arfJob))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if wantSource != "" && !strings.Contains(rec.Body.String(), `"source":"`+wantSource+`"`) {
		b.Fatalf("response source != %q: %s", wantSource, rec.Body)
	}
}

// BenchmarkServeHit measures a served request answered from the warm
// cross-request store (audited once, on read, by the facade).
func BenchmarkServeHit(b *testing.B) {
	st := vliwbind.NewMemoryStore(0)
	s := benchServer(b, st)
	serveOnce(b, s, "search") // warm the store
	serveOnce(b, s, "store")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, s, "")
	}
}

// BenchmarkServeColdBind measures the same request with no store: a
// full B-INIT + B-ITER search per request.
func BenchmarkServeColdBind(b *testing.B) {
	s := benchServer(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, s, "search")
	}
}
