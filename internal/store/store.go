// Package store is the cross-request result store: a concurrency-safe,
// content-addressed map from canonical request keys to binding results,
// backed by an in-memory LRU and an optional append-only JSONL journal
// on disk. The per-run memo cache inside the engine dies with every
// Bind call; this store is what survives between them, turning repeated
// traffic on the working set from "re-search" into "re-audit".
//
// The store itself is dumb on purpose — config plane, not data plane.
// It never inspects graphs, never audits, and never decides whether an
// entry is trustworthy; it stores bytes under keys and forgets old ones.
// The facade owns the semantics: it canonicalizes the request, checks a
// hit against a fresh audit certificate, and evicts entries that fail.
// That split keeps the trust boundary in one place (the audit on the
// read path) no matter how the entry got into the store.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vliwbind/internal/dfg"
	"vliwbind/internal/machine"
)

// Key addresses one stored result: the SHA-256 of the request kind, the
// canonical graph serialization, the machine fingerprint, and any extra
// request bytes (options fingerprint, loop structure). Comparable, so it
// works directly as a map key.
type Key [sha256.Size]byte

// String renders the key as lowercase hex, the form the journal and the
// obs events use.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form String produces.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("store: bad key %q: %v", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("store: bad key %q: %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// Request kinds. The kind participates in the key, so a B-ITER result
// can never answer a B-INIT request (they have different quality
// contracts) and a modulo schedule can never answer either.
const (
	KindIter   = "bind:iter"
	KindInit   = "bind:init"
	KindModulo = "modulo"
)

// ResultKey derives the store key for a request: kind, canonical graph
// hash, machine fingerprint, and extra request bytes (the options
// fingerprint; for modulo requests also the carried-dependence
// structure). Everything that changes the answer must land in here;
// everything that only renames the question must not.
func ResultKey(kind string, c *Canon, dp *machine.Datapath, extra []byte) Key {
	h := sha256.New()
	h.Write([]byte("vliwbind-store/v1\x00"))
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(c.Hash[:])
	h.Write([]byte(MachineFingerprint(dp)))
	h.Write([]byte{0})
	h.Write(extra)
	var k Key
	h.Sum(k[:0])
	return k
}

// MachineFingerprint renders everything about a datapath that affects
// binding results: the spec string (cluster structure, topology,
// channel capacity, move timing) plus the FU timing and memory-port
// parameters the spec notation cannot express.
func MachineFingerprint(dp *machine.Datapath) string {
	var b strings.Builder
	b.WriteString(dp.SpecString())
	for t := dfg.FUType(1); t < dfg.FUType(dfg.NumFUTypes); t++ {
		s := dp.Spec(t)
		fmt.Fprintf(&b, ";%d:%d,%d", t, s.Lat, s.DII)
	}
	fmt.Fprintf(&b, ";mem=%d", dp.NumFU(0, dfg.FUMem))
	return b.String()
}

// Entry is one stored result, expressed entirely in canonical positions
// so it can be transplanted onto any graph with the same canonical form.
// For bind results, Binding[k] is the cluster of the op at canonical
// position k, and L/M are advisory metrics from the publishing run (the
// list scheduler breaks ties on node IDs, so an isomorphic-but-renumbered
// graph may legitimately re-evaluate to slightly different numbers —
// adopters must re-evaluate, never trust these). For modulo results,
// II/Start/Cluster describe the pipelined schedule and Moves holds
// {canonical producer position, destination cluster, cycle} triples.
type Entry struct {
	Key  Key
	Kind string

	// Bind results (KindIter, KindInit).
	Binding []int
	L, M    int

	// Modulo results (KindModulo).
	II      int
	Start   []int
	Cluster []int
	Moves   [][3]int
}

// lruNode is one resident entry threaded on the intrusive recency list.
// The sentinel-rooted doubly-linked list gives Get a zero-allocation
// move-to-front.
type lruNode struct {
	prev, next *lruNode
	ent        Entry
}

// OpenStats reports what journal replay found. Skipped lines are the
// crash-safety currency: a torn final write, a flipped bit, or garbage
// appended by another process must cost that line only, never the store.
type OpenStats struct {
	// Replayed counts journal records adopted into memory (later
	// duplicates overwrite earlier ones and count once each).
	Replayed int
	// Skipped counts undecodable or malformed lines dropped on the floor.
	Skipped int
	// Tombstoned counts deletion records applied.
	Tombstoned int
}

// DefaultMaxEntries bounds the resident set when the caller passes a
// non-positive cap: entries are a few hundred bytes each, so the default
// keeps the store around a megabyte while comfortably covering the
// working set of a sweep over every checked-in kernel times hundreds of
// machine configurations.
const DefaultMaxEntries = 4096

// Store is the concurrency-safe result store. All methods may be called
// from any goroutine. A nil *Store is inert: Get returns nil, Put and
// Evict succeed as no-ops — callers need no nil checks on the hot path.
type Store struct {
	mu      sync.Mutex
	byKey   map[Key]*lruNode
	root    lruNode // sentinel: root.next is most recent, root.prev least
	max     int
	dir     string   // journal directory; "" for memory-only stores
	journal *os.File // nil for memory-only stores
	w       *bufio.Writer
	stats   OpenStats

	// Compaction bookkeeping: lines approximates the journal's record
	// count (replayed + skipped + tombstoned at open, plus every append
	// since), tombs the tombstones appended since open or last compact.
	// Both drive the auto-compaction trigger in maybeCompactLocked.
	lines int
	tombs int
}

// NewMemory creates a memory-only store holding at most max entries
// (DefaultMaxEntries when max <= 0).
func NewMemory(max int) *Store {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	s := &Store{byKey: make(map[Key]*lruNode), max: max}
	s.root.next = &s.root
	s.root.prev = &s.root
	return s
}

// journalName is the journal file inside a store directory.
const journalName = "results.jsonl"

// Open creates or reopens a journal-backed store in directory dir,
// replaying results.jsonl into memory. Corrupt, truncated, or otherwise
// undecodable lines are skipped (counted in OpenStats); duplicate keys
// are last-write-wins; "del" tombstones remove earlier records. The
// journal stays open for appending until Close.
func Open(dir string, max int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	s := NewMemory(max)
	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %v", err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ent, del, ok := decodeRecord(line)
		if !ok {
			s.stats.Skipped++
			continue
		}
		if del {
			s.stats.Tombstoned++
			s.dropLocked(ent.Key)
			continue
		}
		s.stats.Replayed++
		s.putLocked(ent)
	}
	if err := sc.Err(); err != nil {
		// An oversized or unreadable tail is a corrupt tail: keep what
		// replayed cleanly, count one skip, and append after it.
		s.stats.Skipped++
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %v", err)
	}
	s.dir = dir
	s.journal = f
	s.w = bufio.NewWriter(f)
	s.lines = s.stats.Replayed + s.stats.Skipped + s.stats.Tombstoned
	s.tombs = 0
	return s, nil
}

// Valid reports whether the store is safe to use: nil stores are (they
// are documented inert), and so is anything built by Open or NewMemory.
// A *Store constructed any other way — the zero value, say — has no map
// and no recency list and would panic deep inside the first Put, so
// option validators reject it up front with this check instead.
func (s *Store) Valid() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey == nil || s.root.next == nil || s.root.prev == nil {
		return fmt.Errorf("store: Store was not created with Open or NewMemory (zero-value Store is unusable)")
	}
	return nil
}

// OpenStats returns what journal replay found; zero for memory stores.
func (s *Store) OpenStats() OpenStats {
	if s == nil {
		return OpenStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Get returns the entry stored under k, or nil. The returned Entry is a
// copy-by-value snapshot holding shared slices; callers must treat the
// slice contents as immutable. A hit refreshes the entry's recency.
func (s *Store) Get(k Key) *Entry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.byKey[k]
	if n == nil {
		return nil
	}
	s.unlink(n)
	s.pushFront(n)
	return &n.ent
}

// Put stores e under e.Key, replacing any previous entry, and appends it
// to the journal when one is attached. Past the capacity bound the least
// recently used entry is dropped from memory (no tombstone: the journal
// keeps the record, so a reopen with a larger cap still has it).
func (s *Store) Put(e Entry) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(e)
	if s.w == nil {
		return nil
	}
	if err := s.appendRecord(encodeRecord(&e, false)); err != nil {
		return fmt.Errorf("store: journal append: %v", err)
	}
	s.maybeCompactLocked()
	return nil
}

// Evict removes the entry stored under k, reporting whether it was
// resident, and appends a tombstone to the journal so the eviction
// survives a reopen. The facade calls this when a hit fails audit: the
// entry is poison and must never be served again, not even after a
// restart.
func (s *Store) Evict(k Key) (bool, error) {
	if s == nil {
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	had := s.dropLocked(k)
	if s.w == nil {
		return had, nil
	}
	if err := s.appendRecord(encodeRecord(&Entry{Key: k}, true)); err != nil {
		return had, fmt.Errorf("store: journal append: %v", err)
	}
	s.tombs++
	s.maybeCompactLocked()
	return had, nil
}

// Close flushes and closes the journal. The store remains usable as a
// memory-only store afterwards. Closing a memory store is a no-op.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	var err error
	if s.w != nil {
		err = s.w.Flush()
	}
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	s.journal = nil
	s.w = nil
	return err
}

func (s *Store) putLocked(e Entry) {
	// A replaced entry gets a fresh node rather than being rewritten in
	// place: Get hands out pointers into nodes, which callers read after
	// the lock is released.
	if old := s.byKey[e.Key]; old != nil {
		s.unlink(old)
	}
	n := &lruNode{ent: e}
	s.byKey[e.Key] = n
	s.pushFront(n)
	for len(s.byKey) > s.max {
		last := s.root.prev
		s.unlink(last)
		delete(s.byKey, last.ent.Key)
	}
}

func (s *Store) dropLocked(k Key) bool {
	n := s.byKey[k]
	if n == nil {
		return false
	}
	s.unlink(n)
	delete(s.byKey, k)
	return true
}

func (s *Store) unlink(n *lruNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (s *Store) pushFront(n *lruNode) {
	n.prev = &s.root
	n.next = s.root.next
	n.prev.next = n
	n.next.prev = n
}

// appendRecord writes one journal line and flushes it: every Put/Evict
// is durable when the call returns, and a torn write from a crash mid-
// flush can corrupt at most the final line, which replay skips.
func (s *Store) appendRecord(rec []byte) error {
	if _, err := s.w.Write(rec); err != nil {
		return err
	}
	if err := s.w.WriteByte('\n'); err != nil {
		return err
	}
	s.lines++
	return s.w.Flush()
}

// Auto-compaction trigger. The append-only journal accumulates one line
// per Put and per Evict forever; under eviction-heavy traffic (a small
// LRU with a hot churn, or an audit-on-read layer evicting poisoned
// entries) the file grows without bound while the live set stays small.
// Once the journal holds at least compactMinLines records and either
// carries compactLiveFactor× more records than live entries or is at
// least a quarter tombstones, the next Put/Evict rewrites it in place.
// The thresholds keep steady-state compaction cost amortized: a rewrite
// costs O(live) and buys at least compactLiveFactor×live appends of
// headroom before the next one.
const (
	compactMinLines   = 256
	compactLiveFactor = 4
)

func (s *Store) maybeCompactLocked() {
	if s.lines < compactMinLines {
		return
	}
	if s.lines >= compactLiveFactor*(len(s.byKey)+1) || s.tombs >= s.lines/4 {
		// Best-effort: a failed compaction leaves the old journal intact
		// and will be retried once the counters grow further.
		s.compactLocked()
	}
}

// CompactStats reports what one journal compaction did.
type CompactStats struct {
	// Live is the number of records the rewritten journal holds — one
	// per resident entry.
	Live int
	// Dropped is how many journal lines the rewrite discarded:
	// superseded duplicates, tombstones, skipped garbage, and records
	// whose entries have since been evicted.
	Dropped int
}

// Compact rewrites the append-only journal down to the live entries
// only: one record per resident entry, no tombstones, no superseded
// duplicates, no corrupt lines. Replaying the compacted journal yields
// exactly the same resident set. The rewrite is crash-safe — the new
// journal is built in a temporary file and atomically renamed over the
// old one, so a crash mid-compaction costs nothing. Memory-only stores
// (and nil stores) return zero stats and no error. The daemon calls
// this on drain; Put/Evict call it automatically past a size/tombstone
// threshold.
func (s *Store) Compact() (CompactStats, error) {
	if s == nil {
		return CompactStats{}, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return CompactStats{}, nil
	}
	return s.compactLocked()
}

func (s *Store) compactLocked() (CompactStats, error) {
	if err := s.w.Flush(); err != nil {
		return CompactStats{}, fmt.Errorf("store: compact: %v", err)
	}
	path := filepath.Join(s.dir, journalName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: compact: %v", err)
	}
	w := bufio.NewWriter(f)
	// Least-recently-used first, so the rewritten journal replays into
	// the same recency order the resident list holds now.
	live := 0
	for n := s.root.prev; n != &s.root; n = n.prev {
		if _, err := w.Write(encodeRecord(&n.ent, false)); err == nil {
			err = w.WriteByte('\n')
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return CompactStats{}, fmt.Errorf("store: compact: %v", err)
		}
		live++
	}
	if err := w.Flush(); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return CompactStats{}, fmt.Errorf("store: compact: %v", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return CompactStats{}, fmt.Errorf("store: compact: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return CompactStats{}, fmt.Errorf("store: compact: %v", err)
	}
	// Swap the append handle to the compacted file. The old handle now
	// points at an unlinked inode; closing it drops the last reference.
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted journal is on disk but unappendable; surface the
		// error and leave the store memory-only rather than appending to
		// the unlinked old file.
		s.journal.Close()
		s.journal = nil
		s.w = nil
		return CompactStats{}, fmt.Errorf("store: compact: reopen: %v", err)
	}
	s.journal.Close()
	s.journal = nf
	s.w = bufio.NewWriter(nf)
	stats := CompactStats{Live: live, Dropped: s.lines - live}
	s.lines = live
	s.tombs = 0
	return stats, nil
}

// record is the journal line format: version, hex key, and either a
// tombstone marker or the entry payload. JSON keeps the journal
// greppable and diffable; the fsync-free append discipline relies on
// replay skipping any torn tail.
type record struct {
	V     int      `json:"v"`
	Key   string   `json:"key"`
	Del   bool     `json:"del,omitempty"`
	Kind  string   `json:"kind,omitempty"`
	Bn    []int    `json:"bn,omitempty"`
	L     int      `json:"l,omitempty"`
	M     int      `json:"m,omitempty"`
	II    int      `json:"ii,omitempty"`
	Start []int    `json:"start,omitempty"`
	Cl    []int    `json:"cl,omitempty"`
	Moves [][3]int `json:"moves,omitempty"`
}

func encodeRecord(e *Entry, del bool) []byte {
	r := record{V: 1, Key: e.Key.String(), Del: del}
	if !del {
		r.Kind = e.Kind
		r.Bn = e.Binding
		r.L, r.M = e.L, e.M
		r.II = e.II
		r.Start = e.Start
		r.Cl = e.Cluster
		r.Moves = e.Moves
	}
	b, err := json.Marshal(r)
	if err != nil {
		// Marshal of plain ints and slices cannot fail; keep the journal
		// well-formed even if it somehow does.
		return []byte(`{"v":1,"key":"` + e.Key.String() + `","del":true}`)
	}
	return b
}

// decodeRecord parses one journal line. ok is false for anything replay
// must skip: bad JSON, unknown version, malformed key, or a payload
// record with no kind.
func decodeRecord(line []byte) (Entry, bool, bool) {
	var r record
	if err := json.Unmarshal(line, &r); err != nil {
		return Entry{}, false, false
	}
	if r.V != 1 {
		return Entry{}, false, false
	}
	k, err := ParseKey(r.Key)
	if err != nil {
		return Entry{}, false, false
	}
	if r.Del {
		return Entry{Key: k}, true, true
	}
	if r.Kind == "" {
		return Entry{}, false, false
	}
	return Entry{Key: k, Kind: r.Kind, Binding: r.Bn, L: r.L, M: r.M,
		II: r.II, Start: r.Start, Cluster: r.Cl, Moves: r.Moves}, false, true
}
