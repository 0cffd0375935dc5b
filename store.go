package vliwbind

// The cross-request result store's read and write paths. The store
// itself (internal/store) is deliberately dumb — content-addressed
// bytes with an LRU and a journal — and the trust logic all lives here,
// in the facade, because it needs both sides of the audit dependency:
// internal/audit certifies bind.Results, so the bind package cannot
// consult it, but this package sits above both. Both directions go
// through the facade's one certification exit (certify): a search
// result is published only after it passed, and a stored entry is
// returned only after its transplant onto the requesting graph passed
// a fresh end-to-end audit — so a corrupt journal, a poisoned entry, or
// a store bug can cost at worst a cache miss, never a wrong binding.
// Either way the caller's result is audited exactly once.
//
// Stored entries are expressed in canonical positions (see
// internal/store.Canonicalize), which is what makes the store
// cross-request: a renamed, reordered, but isomorphic kernel computes
// the same canonical form, finds the entry, and transplants the binding
// through its own Order permutation. The entry's recorded L and M are
// advisory only — the list scheduler breaks ties on node IDs, so an
// isomorphic graph may legitimately re-evaluate to slightly different
// numbers — and adoption always re-evaluates and re-audits rather than
// trusting them.

import (
	"context"
	"fmt"
	"sort"

	"vliwbind/internal/audit"
	"vliwbind/internal/bind"
	"vliwbind/internal/modulo"
	"vliwbind/internal/obs"
	"vliwbind/internal/store"
)

// ResultStore is the concurrency-safe cross-request result store:
// hand one to Options.Store to serve repeated (isomorphic) requests
// from audited cache hits instead of full searches. Safe for concurrent
// use by any number of binds; a nil *ResultStore is inert.
type ResultStore = store.Store

// StoreStats reports what opening a journal-backed store found on disk.
type StoreStats = store.OpenStats

// OpenStore opens (creating if needed) a journal-backed result store in
// directory dir. Previously journaled results are replayed into memory;
// corrupt or truncated journal lines are skipped, duplicate keys are
// last-write-wins, and tombstoned entries stay gone. Close it when done
// to flush the journal.
func OpenStore(dir string) (*ResultStore, error) { return store.Open(dir, 0) }

// NewMemoryStore creates a memory-only result store holding at most max
// entries (a default capacity when max <= 0). It serves the same
// audited hits as a journal-backed store but forgets everything when
// the process ends.
func NewMemoryStore(max int) *ResultStore { return store.NewMemory(max) }

// bindThroughStore is the store seam under the B-INIT and B-ITER facade
// binders: consult the store, serve an audited hit, otherwise run the
// (already certified) search and publish its complete result. All store
// activity is strictly best-effort — any failure to canonicalize,
// fingerprint, adopt, audit, or journal degrades to exactly the search
// that would have run with no store attached.
func bindThroughStore(g *Graph, dp *Datapath, opts Options, kind string, search func() (*Result, error)) (*Result, error) {
	st := opts.Store
	if st == nil {
		return search()
	}
	canon, err := store.Canonicalize(g)
	if err != nil {
		return search() // bound/empty graph: let the binder report it
	}
	fp, err := opts.Fingerprint()
	if err != nil {
		return search() // invalid options: ditto
	}
	key := store.ResultKey(kind, canon, dp, fp)
	if res, ok := lookup(st, key, g.Name(), opts.Stats, opts.Observer,
		func(ent *store.Entry) (*Result, string) { return adoptBound(g, dp, canon, ent, kind) },
		func(res *Result) (int, int) { return res.L(), res.Moves() }); ok {
		return res, nil
	}
	res, err := search()
	if err == nil && !res.Degraded {
		// search returns only certified results. Degraded ones are valid
		// but not the search's full answer; publishing one would freeze
		// an interrupted search's quality into every future hit, so only
		// complete results are stored.
		ent := store.Entry{Key: key, Kind: kind, L: res.L(), M: res.Moves(),
			Binding: make([]int, len(canon.Order))}
		for k, id := range canon.Order {
			ent.Binding[k] = res.Binding[id]
		}
		st.Put(ent)
	}
	return res, err
}

// lookup consults the store for key. An entry that adopt certifies is a
// hit, returned with ok. One it rejects is poison for this key and must
// never be served again, so it is evicted and the eviction journaled; a
// journal-append error cannot make an answer wrong, since the caller
// searches either way. The hit (with lm's L and M), eviction or miss is
// counted on stats and reported to o; nil disables either.
func lookup[T any](st *ResultStore, key store.Key, kernel string, stats *CacheStats, o Observer,
	adopt func(*store.Entry) (T, string), lm func(T) (int, int)) (v T, ok bool) {
	if ent := st.Get(key); ent != nil {
		v, reason := adopt(ent)
		if reason == "" {
			if stats != nil {
				stats.RecordStoreHit()
			}
			l, m := lm(v)
			emitStore(o, obs.Event{Type: obs.EvStoreHit, Kernel: kernel, Key: key.String(), L: l, M: m})
			return v, true
		}
		st.Evict(key)
		if stats != nil {
			stats.RecordStoreEvict()
		}
		emitStore(o, obs.Event{Type: obs.EvStoreEvict, Kernel: kernel, Key: key.String(), Err: reason})
	}
	if stats != nil {
		stats.RecordStoreMiss()
	}
	emitStore(o, obs.Event{Type: obs.EvStoreMiss, Kernel: kernel, Key: key.String()})
	return v, false
}

// adoptBound transplants a stored entry onto the requesting graph and
// certifies it: kind and shape checks, re-evaluation (deriving the
// bound graph and list schedule for *this* graph), then a full
// end-to-end audit. A non-empty reason means the entry must be evicted.
func adoptBound(g *Graph, dp *Datapath, canon *store.Canon, ent *store.Entry, kind string) (*Result, string) {
	if ent.Kind != kind {
		return nil, fmt.Sprintf("stored kind %q, want %q", ent.Kind, kind)
	}
	if len(ent.Binding) != len(canon.Order) {
		return nil, fmt.Sprintf("stored binding has %d ops, graph has %d", len(ent.Binding), len(canon.Order))
	}
	bn := make([]int, len(canon.Order))
	for k, id := range canon.Order {
		c := ent.Binding[k]
		if c < 0 || c >= dp.NumClusters() {
			return nil, fmt.Sprintf("stored cluster %d out of range [0,%d)", c, dp.NumClusters())
		}
		bn[id] = c
	}
	res, err := certify(bind.Evaluate(g, dp, bn))
	if err != nil {
		return nil, "re-evaluation or audit failed: " + err.Error()
	}
	return res, ""
}

// emitStore hands a store event to the observer when one is attached.
func emitStore(o Observer, e obs.Event) {
	if o != nil {
		o.Event(e)
	}
}

// ModuloPipelineStored is ModuloPipelineContext behind the result
// store: an isomorphic loop body with the same carried-dependence
// structure, machine, and MaxII is served from the store after passing
// a fresh AuditPipelined certificate, and fresh (already certified)
// schedules are published for the next request. A nil store, stats, or
// observer disables that aspect; the schedule returned is identical
// either way.
func ModuloPipelineStored(ctx context.Context, l *Loop, dp *Datapath, opts ModuloOptions,
	st *ResultStore, stats *CacheStats, observer Observer) (*PipelinedSchedule, error) {
	search := func() (*PipelinedSchedule, error) {
		return ModuloPipelineContext(ctx, l, dp, opts)
	}
	if st == nil {
		return search()
	}
	if err := l.Validate(); err != nil {
		return search() // malformed loop: let the scheduler report it
	}
	canon, err := store.Canonicalize(l.Body)
	if err != nil {
		return search()
	}
	key := store.ResultKey(store.KindModulo, canon, dp, moduloExtra(canon, l, opts))
	if ps, ok := lookup(st, key, l.Body.Name(), stats, observer,
		func(ent *store.Entry) (*PipelinedSchedule, string) { return adoptModulo(l, dp, canon, ent) },
		func(ps *PipelinedSchedule) (int, int) { return ps.II, len(ps.Moves) }); ok {
		return ps, nil
	}
	ps, err := search()
	if err == nil {
		n := len(canon.Order)
		ent := store.Entry{Key: key, Kind: store.KindModulo, II: ps.II,
			Start: make([]int, n), Cluster: make([]int, n)}
		for k, id := range canon.Order {
			ent.Start[k] = ps.Start[id]
			ent.Cluster[k] = ps.Cluster[id]
		}
		for _, m := range ps.Moves {
			ent.Moves = append(ent.Moves, [3]int{int(canon.Pos[m.Prod.ID()]), m.Dest, m.Cycle})
		}
		st.Put(ent)
	}
	return ps, err
}

// moduloExtra fingerprints the parts of a modulo request the body graph
// does not capture: the II cap and the carried-dependence structure in
// canonical positions, sorted so declaration order never splits keys.
func moduloExtra(canon *store.Canon, l *Loop, opts ModuloOptions) []byte {
	deps := make([][3]int, 0, len(l.Carried))
	for _, cd := range l.Carried {
		deps = append(deps, [3]int{int(canon.Pos[cd.From.ID()]), int(canon.Pos[cd.To.ID()]), cd.Distance})
	}
	sort.Slice(deps, func(i, j int) bool {
		a, b := deps[i], deps[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	b := fmt.Appendf(nil, "modopts/v1 maxii=%d", opts.MaxII)
	for _, d := range deps {
		b = fmt.Appendf(b, " %d>%d@%d", d[0], d[1], d[2])
	}
	return b
}

// adoptModulo rebuilds a pipelined schedule from a stored entry for the
// requesting loop and certifies it with a fresh AuditPipelined pass
// (which expands enough concrete iterations to cover the steady state).
func adoptModulo(l *Loop, dp *Datapath, canon *store.Canon, ent *store.Entry) (*PipelinedSchedule, string) {
	if ent.Kind != store.KindModulo {
		return nil, fmt.Sprintf("stored kind %q, want %q", ent.Kind, store.KindModulo)
	}
	n := len(canon.Order)
	if len(ent.Start) != n || len(ent.Cluster) != n {
		return nil, fmt.Sprintf("stored schedule has %d/%d ops, body has %d", len(ent.Start), len(ent.Cluster), n)
	}
	if ent.II < 1 {
		return nil, fmt.Sprintf("stored II %d out of range", ent.II)
	}
	ps := &PipelinedSchedule{Loop: l, Datapath: dp, II: ent.II,
		Start: make([]int, n), Cluster: make([]int, n)}
	for k, id := range canon.Order {
		if s := ent.Start[k]; s < 0 {
			return nil, fmt.Sprintf("stored start cycle %d out of range", s)
		}
		if c := ent.Cluster[k]; c < 0 || c >= dp.NumClusters() {
			return nil, fmt.Sprintf("stored cluster %d out of range [0,%d)", c, dp.NumClusters())
		}
		ps.Start[id] = ent.Start[k]
		ps.Cluster[id] = ent.Cluster[k]
	}
	for _, m := range ent.Moves {
		p, dest, cycle := m[0], m[1], m[2]
		if p < 0 || p >= n {
			return nil, fmt.Sprintf("stored move producer %d out of range", p)
		}
		ps.Moves = append(ps.Moves, modulo.MoveSlot{Prod: l.Body.Node(int(canon.Order[p])), Dest: dest, Cycle: cycle})
	}
	if err := audit.AuditPipelined(ps, 0); err != nil {
		return nil, "audit failed: " + err.Error()
	}
	return ps, ""
}
