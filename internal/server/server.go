// Package server is the robustness layer of vliwbindd: a stdlib-only
// net/http JSON front end over the vliwbind facade that survives
// overload, faults, and shutdown without ever serving an uncertified
// answer. Its three jobs, in the order a request meets them:
//
//   - Admission control. A bounded queue (Workers running + QueueDepth
//     waiting) plus a moving (EWMA) estimate of per-bind cost predict
//     whether a request can meet its deadline; requests that cannot are
//     rejected immediately with 429 and a Retry-After hint instead of
//     being queued to die.
//
//   - Graceful degradation. Admitted jobs run under a compute budget.
//     Under queue pressure (or an explicit client budget) the budget is
//     shrunk below the full deadline, putting the bind on the audited
//     anytime path: the response is tagged "degraded" with the reason,
//     never silently worse and never uncertified.
//
//   - Fault containment. A worker panic (surfaced by the engine pool as
//     *bind.PanicError after its own capped retries) fails only the one
//     request; the server retries transient faults with exponential
//     backoff before answering 500. Every 200 carries a fresh
//     AuditResult certificate: the facade certifies each result once,
//     at its single exit, so the handler never re-audits.
//
// Lifecycle: Drain stops admission (readyz flips to 503), lets
// in-flight jobs finish — force-degrading them at half the drain
// deadline — then compacts and flushes the store journal. The daemon
// in cmd/vliwbindd wires Drain to SIGTERM/SIGINT via internal/sigctx.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vliwbind"
	"vliwbind/internal/bind"
)

// Outcome classification: every response the server writes is exactly
// one of these, counted in /metrics and asserted by the chaos soak.
const (
	OutcomeOK       = "ok"       // 200, full-quality audited result
	OutcomeDegraded = "degraded" // 200, budget-truncated audited result
	OutcomeRejected = "rejected" // 429/503, load shed before any work
	OutcomeFailed   = "failed"   // 4xx/5xx, bad input or contained fault
)

// Config carries the daemon's tunables. The zero value of every field
// selects a production-reasonable default (see withDefaults).
type Config struct {
	// Workers bounds how many binds run concurrently. Zero defaults to
	// vliwbind's own parallelism source, GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot beyond the Workers running ones. Zero defaults to
	// 4×Workers; admission capacity is Workers+QueueDepth.
	QueueDepth int
	// DefaultDeadline applies to requests that send no deadline_ms.
	// Zero defaults to 2s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines. Zero defaults to 30s.
	MaxDeadline time.Duration
	// MinBudget is the smallest compute budget worth admitting: a
	// request whose deadline cannot fit MinBudget of work after the
	// predicted queue wait is rejected up front, because not even the
	// B-INIT floor could be certified in time. Zero defaults to 10ms.
	MinBudget time.Duration
	// DegradePressure is the queue-fill fraction (0..1] beyond which
	// admitted jobs are budget-capped to the moving per-bind cost
	// estimate, trading tail quality for queue drainage. Zero defaults
	// to 0.5.
	DegradePressure float64
	// DrainDeadline bounds Drain: in-flight jobs get half of it to
	// finish naturally, then are cancelled onto the anytime path for
	// the rest. Zero defaults to 5s.
	DrainDeadline time.Duration
	// InitialCost seeds the EWMA per-bind cost estimate before any
	// bind has completed. Zero defaults to 25ms.
	InitialCost time.Duration
	// RequestRetries caps server-side re-runs of a bind that failed
	// transiently (recovered panic), on top of the engine's own
	// per-task retries. Zero defaults to 1; negative disables.
	RequestRetries int
	// Store, when non-nil, is the shared cross-request result tier;
	// repeated (isomorphic) requests are served from audited hits.
	// Drain compacts and flushes its journal.
	Store *vliwbind.ResultStore
	// BindOptions is the base engine configuration applied to every
	// request; per-request fields (Stats, Store, Observer, Hook) are
	// overlaid on a copy. Validated by New.
	BindOptions vliwbind.Options
	// Hook, when non-nil, is installed as BindOptions.Hook on every
	// request — the deterministic chaos seam (internal/faultinject).
	Hook func(point string)
	// Metrics, when non-nil, observes every bind and is served under
	// /metrics next to the server's own counters.
	Metrics *vliwbind.Metrics
	// Logf, when non-nil, receives one line per notable server event
	// (admission rejections, faults, drain progress).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = defaultWorkers()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MinBudget == 0 {
		c.MinBudget = 10 * time.Millisecond
	}
	if c.DegradePressure == 0 {
		c.DegradePressure = 0.5
	}
	if c.DrainDeadline == 0 {
		c.DrainDeadline = 5 * time.Second
	}
	if c.InitialCost == 0 {
		c.InitialCost = 25 * time.Millisecond
	}
	if c.RequestRetries == 0 {
		c.RequestRetries = 1
	} else if c.RequestRetries < 0 {
		c.RequestRetries = 0
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Validate rejects configurations that would misbehave at runtime with
// descriptive errors, before the daemon starts listening.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("server: Config.Workers is %d; want >= 0 (0 selects GOMAXPROCS)", c.Workers)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("server: Config.QueueDepth is %d; want >= 0 (0 selects 4x workers)", c.QueueDepth)
	}
	if c.DegradePressure < 0 || c.DegradePressure > 1 {
		return fmt.Errorf("server: Config.DegradePressure is %g; want within [0,1] (0 selects 0.5)", c.DegradePressure)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"DefaultDeadline", c.DefaultDeadline}, {"MaxDeadline", c.MaxDeadline},
		{"MinBudget", c.MinBudget}, {"DrainDeadline", c.DrainDeadline},
		{"InitialCost", c.InitialCost},
	} {
		if d.v < 0 {
			return fmt.Errorf("server: Config.%s is %v; want >= 0 (0 selects the default)", d.name, d.v)
		}
	}
	if c.MaxDeadline != 0 && c.MinBudget != 0 && c.MinBudget > c.MaxDeadline {
		return fmt.Errorf("server: Config.MinBudget %v exceeds Config.MaxDeadline %v; no request could ever be admitted", c.MinBudget, c.MaxDeadline)
	}
	if err := c.BindOptions.Validate(); err != nil {
		return fmt.Errorf("server: Config.BindOptions: %w", err)
	}
	return nil
}

// Server is the binding service. It implements http.Handler; the
// daemon (or a test) supplies the listener. Create with New.
type Server struct {
	cfg Config
	mux *http.ServeMux

	sem chan struct{} // worker slots, capacity cfg.Workers

	// queued counts admitted-but-unfinished requests (running +
	// waiting); admission capacity is Workers+QueueDepth.
	queued atomic.Int64

	// admitMu orders inflight.Add against Drain's draining flip so a
	// request is never added after Drain began waiting.
	admitMu  sync.Mutex
	draining atomic.Bool
	inflight sync.WaitGroup

	// baseCtx is cancelled (with a cause) when Drain force-degrades
	// stragglers; every in-flight bind context is linked to it.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	// ewmaNs is the moving per-bind cost estimate in nanoseconds,
	// updated from completed full-quality binds only (degraded runs
	// measure their budget, not the workload).
	ewmaNs atomic.Int64

	ok, degraded, rejected, failed atomic.Int64
}

// errDraining is the cancellation cause installed when Drain cuts
// in-flight binds over to the anytime path.
var errDraining = errors.New("server draining")

// New validates cfg, applies defaults, and returns a ready Server.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.Workers),
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.ewmaNs.Store(int64(cfg.InitialCost))

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/bind", s.handleBind)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether Drain has begun (admission is closed).
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain closes admission, waits for in-flight requests — giving them
// half the drain deadline to finish at full quality, then cancelling
// them onto the audited anytime path for the rest — and finally
// compacts and flushes the store journal. It returns an error only if
// in-flight work outlived the whole drain deadline or the journal
// could not be rewritten; either way admission stays closed.
func (s *Server) Drain() error {
	s.admitMu.Lock()
	first := !s.draining.Load()
	s.draining.Store(true)
	s.admitMu.Unlock()
	if !first {
		return errors.New("server: already draining")
	}
	s.cfg.Logf("drain: admission closed, waiting for %d in-flight request(s)", s.queued.Load())

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	grace := s.cfg.DrainDeadline / 2
	var drainErr error
	select {
	case <-done:
	case <-time.After(grace):
		s.cfg.Logf("drain: grace period over, degrading %d in-flight request(s)", s.queued.Load())
		s.baseCancel(errDraining)
		select {
		case <-done:
		case <-time.After(s.cfg.DrainDeadline - grace):
			drainErr = fmt.Errorf("server: %d request(s) still in flight after drain deadline %v", s.queued.Load(), s.cfg.DrainDeadline)
		}
	}
	s.baseCancel(errDraining) // release the watcher either way
	if s.cfg.Store != nil {
		cs, err := s.cfg.Store.Compact()
		if err != nil {
			if drainErr == nil {
				drainErr = fmt.Errorf("server: drain-time store compaction: %w", err)
			}
		} else {
			s.cfg.Logf("drain: store journal compacted to %d live entrie(s), %d dropped", cs.Live, cs.Dropped)
		}
	}
	if drainErr == nil {
		s.cfg.Logf("drain: complete")
	}
	return drainErr
}

// Counts returns the outcome counters: how many responses the server
// has classified ok / degraded / rejected / failed.
func (s *Server) Counts() map[string]int64 {
	return map[string]int64{
		OutcomeOK:       s.ok.Load(),
		OutcomeDegraded: s.degraded.Load(),
		OutcomeRejected: s.rejected.Load(),
		OutcomeFailed:   s.failed.Load(),
	}
}

func (s *Server) capacity() int64 { return int64(s.cfg.Workers + s.cfg.QueueDepth) }

func (s *Server) ewma() time.Duration { return time.Duration(s.ewmaNs.Load()) }

// observeCost folds a completed full-quality bind's wall time into the
// moving estimate (EWMA, alpha 0.3).
func (s *Server) observeCost(d time.Duration) {
	for {
		old := s.ewmaNs.Load()
		next := old + int64(float64(int64(d)-old)*0.3)
		if s.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// predictWait estimates how long a new arrival would wait for a worker
// slot with depth admitted requests ahead of it.
func (s *Server) predictWait(depth int64) time.Duration {
	ahead := depth - int64(s.cfg.Workers) + 1
	if ahead < 0 {
		ahead = 0
	}
	return time.Duration(ahead) * s.ewma() / time.Duration(s.cfg.Workers)
}

// transientFault reports whether err is worth a server-side re-run: a
// contained worker panic (the engine already exhausted its per-task
// retries) or an error that self-identifies as transient.
func transientFault(err error) bool {
	var pe *bind.PanicError
	if errors.As(err, &pe) {
		return true
	}
	var tr interface{ Transient() bool }
	return errors.As(err, &tr) && tr.Transient()
}

// defaultWorkers mirrors the engine's default parallelism source.
func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case s.queued.Load() >= s.capacity():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "saturated")
	default:
		fmt.Fprintln(w, "ready")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	type serverMetrics struct {
		Outcomes   map[string]int64 `json:"outcomes"`
		QueueDepth int64            `json:"queue_depth"`
		Capacity   int64            `json:"capacity"`
		Workers    int              `json:"workers"`
		EWMAms     float64          `json:"ewma_ms"`
		Draining   bool             `json:"draining"`
	}
	out := struct {
		Server serverMetrics `json:"server"`
		Bind   any           `json:"bind,omitempty"`
	}{
		Server: serverMetrics{
			Outcomes:   s.Counts(),
			QueueDepth: s.queued.Load(),
			Capacity:   s.capacity(),
			Workers:    s.cfg.Workers,
			EWMAms:     float64(s.ewma()) / float64(time.Millisecond),
			Draining:   s.draining.Load(),
		},
	}
	if s.cfg.Metrics != nil {
		out.Bind = s.cfg.Metrics.Snapshot()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}
