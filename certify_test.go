package vliwbind

// The facade's certification contract: every result a binder entry point
// returns has passed through certify exactly once — searched or served
// from the store, complete or degraded — and a result that fails the
// audit never leaves the facade and never enters the store. The tests
// substitute auditResult, the one seam in front of audit.Audit.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/obs"
)

// certifyCase is one facade entry point. stored marks the binders that
// consult Options.Store; degrade, when set, runs the entry point so that
// it is interrupted after its first complete candidate.
type certifyCase struct {
	name    string
	stored  bool
	run     func(opts Options) (*Result, error)
	degrade func(opts Options) (*Result, error)
}

// certifyCases lists all fourteen binder entry points over one small
// graph that every binder accepts (Optimal's size cap, MinCut's
// homogeneous clusters).
func certifyCases(t *testing.T) []certifyCase {
	t.Helper()
	g := RandomGraph(RandomGraphConfig{Ops: 12, Seed: 3})
	dp, err := ParseDatapath("[1,1|1,1]", DatapathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// ImproveBind's input comes straight from the engine, not the facade,
	// so producing it never touches the seam.
	floor, err := bind.Initial(g, dp, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	return []certifyCase{
		{name: "Bind", stored: true,
			run: func(o Options) (*Result, error) { return Bind(g, dp, o) }},
		{name: "BindContext", stored: true,
			run: func(o Options) (*Result, error) { return BindContext(bg, g, dp, o) },
			degrade: func(o Options) (*Result, error) {
				ctx, o := cancelAtIterRound(o)
				return BindContext(ctx, g, dp, o)
			}},
		{name: "InitialBind", stored: true,
			run: func(o Options) (*Result, error) { return InitialBind(g, dp, o) }},
		// The B-INIT sweep is all-or-nothing: InitialBindContext has no
		// degraded outcome to cover.
		{name: "InitialBindContext", stored: true,
			run: func(o Options) (*Result, error) { return InitialBindContext(bg, g, dp, o) }},
		{name: "ImproveBind",
			run: func(o Options) (*Result, error) { return ImproveBind(floor, o) }},
		{name: "ImproveBindContext",
			run: func(o Options) (*Result, error) { return ImproveBindContext(bg, floor, o) },
			degrade: func(o Options) (*Result, error) {
				ctx, o := cancelAtIterRound(o)
				return ImproveBindContext(ctx, floor, o)
			}},
		{name: "BindPCC",
			run: func(Options) (*Result, error) { return BindPCC(g, dp, PCCOptions{}) }},
		{name: "BindPCCContext",
			run: func(Options) (*Result, error) { return BindPCCContext(bg, g, dp, PCCOptions{}) },
			degrade: func(Options) (*Result, error) {
				ctx, cancel := cancelAtEvent(obs.EvPCCCap)
				return BindPCCContext(ctx, g, dp, PCCOptions{Observer: cancel})
			}},
		{name: "BindAnneal",
			run: func(Options) (*Result, error) { return BindAnneal(g, dp, AnnealOptions{Seed: 1}) }},
		{name: "BindAnnealContext",
			run: func(Options) (*Result, error) { return BindAnnealContext(bg, g, dp, AnnealOptions{Seed: 1}) },
			degrade: func(Options) (*Result, error) {
				ctx, cancel := cancelAtEvent(obs.EvAnnealTemp)
				return BindAnnealContext(ctx, g, dp, AnnealOptions{Seed: 1, Observer: cancel})
			}},
		{name: "BindMinCut",
			run: func(Options) (*Result, error) { return BindMinCut(g, dp, MinCutOptions{}) }},
		{name: "BindMinCutContext",
			run: func(Options) (*Result, error) { return BindMinCutContext(bg, g, dp, MinCutOptions{}) },
			degrade: func(Options) (*Result, error) {
				// The first poll precedes the initial partition; every
				// later one finds a complete binding to degrade to.
				return BindMinCutContext(newPollCtx(2), g, dp, MinCutOptions{})
			}},
		{name: "Optimal",
			run: func(Options) (*Result, error) { return Optimal(g, dp, 0) }},
		{name: "OptimalContext",
			run: func(Options) (*Result, error) { return OptimalContext(bg, g, dp, 0) },
			degrade: func(Options) (*Result, error) {
				// The first poll comes 256 tree nodes in, past the first
				// scored leaf of a 12-op graph.
				return OptimalContext(newPollCtx(1), g, dp, 0)
			}},
	}
}

// cancelAtIterRound cancels the returned context when B-ITER starts its
// first round, as TestStoreDegradedNotPublished does.
func cancelAtIterRound(o Options) (context.Context, Options) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	o.Hook = func(point string) {
		if point == bind.HookIterRound {
			once.Do(cancel)
		}
	}
	return ctx, o
}

// eventCanceller cancels its context at the first event of one type.
type eventCanceller struct {
	typ    string
	cancel context.CancelFunc
}

func (c eventCanceller) Event(e obs.Event) {
	if e.Type == c.typ {
		c.cancel()
	}
}

func cancelAtEvent(typ string) (context.Context, Observer) {
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, eventCanceller{typ: typ, cancel: cancel}
}

// pollCtx reports cancellation from its n-th Err poll on, for binders
// with no hook between their first complete candidate and their next
// cancellation check.
type pollCtx struct {
	context.Context
	mu   sync.Mutex
	left int
	done chan struct{}
	once sync.Once
}

func newPollCtx(n int) *pollCtx {
	return &pollCtx{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 1 {
		c.left--
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// auditSpy replaces the audit seam for one test. With reject nil it
// delegates to the real audit and counts calls per result; otherwise it
// fails every audit with reject.
type auditSpy struct {
	mu     sync.Mutex
	reject error
	calls  map[*Result]int
	total  int
}

func spyAudit(t *testing.T, reject error) *auditSpy {
	t.Helper()
	s := &auditSpy{reject: reject, calls: map[*Result]int{}}
	prev := auditResult
	auditResult = func(res *Result) error {
		s.mu.Lock()
		s.calls[res]++
		s.total++
		s.mu.Unlock()
		if s.reject != nil {
			return s.reject
		}
		return audit.Audit(res)
	}
	t.Cleanup(func() { auditResult = prev })
	return s
}

func (s *auditSpy) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = map[*Result]int{}
	s.total = 0
}

// onlyOnce fails unless res, and nothing else, was audited exactly once
// since the last reset.
func (s *auditSpy) onlyOnce(t *testing.T, res *Result) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.calls[res] != 1 || s.total != 1 {
		t.Errorf("returned result audited %d time(s), %d audit call(s) in all; want exactly 1",
			s.calls[res], s.total)
	}
}

// TestCertifyOncePerResult: every entry point's returned result was
// audited exactly once, on every path it has — no store, a store miss, a
// store hit and a degraded run.
func TestCertifyOncePerResult(t *testing.T) {
	spy := spyAudit(t, nil)
	for _, c := range certifyCases(t) {
		t.Run(c.name+"/nostore", func(t *testing.T) {
			spy.reset()
			res, err := c.run(Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			spy.onlyOnce(t, res)
		})
		if c.stored {
			t.Run(c.name+"/store", func(t *testing.T) {
				st := NewMemoryStore(0)
				var stats CacheStats
				opts := Options{Parallelism: 1, Store: st, Stats: &stats}
				spy.reset()
				cold, err := c.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				spy.onlyOnce(t, cold)
				if st.Len() != 1 {
					t.Fatalf("cold request left %d store entries, want 1", st.Len())
				}
				spy.reset()
				hit, err := c.run(opts)
				if err != nil {
					t.Fatal(err)
				}
				if stats.StoreHits() != 1 {
					t.Fatalf("second request: %d store hit(s), want 1", stats.StoreHits())
				}
				spy.onlyOnce(t, hit)
			})
		}
		if c.degrade != nil {
			t.Run(c.name+"/degraded", func(t *testing.T) {
				st := NewMemoryStore(0)
				spy.reset()
				res, err := c.degrade(Options{Parallelism: 1, Store: st})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Degraded {
					t.Fatal("interrupted run did not degrade; the path is untested")
				}
				spy.onlyOnce(t, res)
				if st.Len() != 0 {
					t.Errorf("degraded result was published: store holds %d entries", st.Len())
				}
			})
		}
	}
}

// TestCertifyRejectionIsAnError: when the audit rejects, every entry
// point returns an error and no result, a cold request publishes
// nothing, and a stored entry that fails its audit on a hit is evicted.
func TestCertifyRejectionIsAnError(t *testing.T) {
	errReject := errors.New("rejected by the test audit")
	spy := spyAudit(t, errReject)
	wantRejected := func(t *testing.T, res *Result, err error) {
		t.Helper()
		if !errors.Is(err, errReject) || res != nil {
			t.Fatalf("got (%v, %v), want (nil, the audit's rejection)", res, err)
		}
	}
	for _, c := range certifyCases(t) {
		t.Run(c.name+"/nostore", func(t *testing.T) {
			res, err := c.run(Options{Parallelism: 1})
			wantRejected(t, res, err)
		})
		if c.stored {
			t.Run(c.name+"/store", func(t *testing.T) {
				st := NewMemoryStore(0)
				var stats CacheStats
				opts := Options{Parallelism: 1, Store: st, Stats: &stats}
				res, err := c.run(opts)
				wantRejected(t, res, err)
				if st.Len() != 0 {
					t.Fatalf("rejected cold result was published: store holds %d entries", st.Len())
				}
				// Warm the store under the real audit, then reject the hit.
				spy.reject = nil
				if _, err := c.run(opts); err != nil {
					t.Fatal(err)
				}
				spy.reject = errReject
				if st.Len() != 1 {
					t.Fatalf("warm-up left %d store entries, want 1", st.Len())
				}
				res, err = c.run(opts)
				wantRejected(t, res, err)
				if st.Len() != 0 || stats.StoreEvicts() != 1 || stats.StoreHits() != 0 {
					t.Errorf("rejected hit: store holds %d entries, %d evict(s), %d hit(s); want 0/1/0",
						st.Len(), stats.StoreEvicts(), stats.StoreHits())
				}
			})
		}
		if c.degrade != nil {
			t.Run(c.name+"/degraded", func(t *testing.T) {
				res, err := c.degrade(Options{Parallelism: 1})
				wantRejected(t, res, err)
			})
		}
	}
}
