package vliwbind

import (
	"testing"

	"vliwbind/internal/store"
)

// Pinned store-addressing bytes for one fixed job: EWF on [2,1|2,1],
// B-ITER, zero-value options. Journaled results are found again only
// if both halves of the key survive unchanged, so any edit to the
// Options fields, their defaults or their encoding that moves either
// value orphans every result a store already holds. Change these
// constants only together with a deliberate store-format break.
const (
	goldenFingerprint = "bindopts/v1 a=3ff0000000000000 b=3ff0000000000000 g=3ff199999999999a st=0 rev=false pairs=false side=4 it=0 seeds=6"
	goldenEWFIterKey  = "2789f1a045ead366bfa48d1dcf84498087d373567ce2ac6b1b39238b54a9465b"
)

// TestOptionsFingerprintGolden pins the zero-value options fingerprint
// and the result key the facade files an EWF × [2,1|2,1] B-ITER result
// under, and proves the facade really stores under that key.
func TestOptionsFingerprintGolden(t *testing.T) {
	fp, err := Options{}.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if string(fp) != goldenFingerprint {
		t.Fatalf("Options{}.Fingerprint() = %q\nwant %q", fp, goldenFingerprint)
	}
	g := KernelMust("EWF")
	dp, err := ParseDatapath("[2,1|2,1]", DatapathConfig{})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := store.Canonicalize(g)
	if err != nil {
		t.Fatal(err)
	}
	key := store.ResultKey(store.KindIter, canon, dp, fp)
	if key.String() != goldenEWFIterKey {
		t.Fatalf("ResultKey(bind:iter, EWF, [2,1|2,1]) = %s\nwant %s", key, goldenEWFIterKey)
	}
	st := NewMemoryStore(0)
	if _, err := Bind(g, dp, Options{Parallelism: 1, Store: st}); err != nil {
		t.Fatal(err)
	}
	if st.Get(key) == nil {
		t.Fatalf("facade did not store the EWF result under the pinned key %s", key)
	}
}
