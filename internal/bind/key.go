package bind

import "encoding/hex"

// bindingKey serializes a binding into a compact string key: one byte
// per operation holding its cluster index plus one, so the unbound
// marker -1 also round-trips. The key doubles as the B-ITER
// plateau-/cycle-detection key and as the memoization key of the
// schedule-evaluation cache, which puts it on the hot path of every
// perturbation round — hence a single allocation and no per-element
// formatting. The byte encoding is exact and collision-free because
// cluster indices are bounded: problem.New rejects datapaths with more
// than problem.MaxClusters (255) clusters, so every index is at most 254
// and c+1 always fits a byte.
// Without that gate, cluster c and c+256 would collide here — in the
// memo cache and in B-ITER's plateau detection — which is why the bound
// is enforced at problem construction rather than assumed.
func bindingKey(bn []int) string {
	buf := make([]byte, len(bn))
	for i, c := range bn {
		buf[i] = byte(c + 1)
	}
	return string(buf)
}

// keyHex renders a binding as the hex form of its bindingKey — the
// printable, stable identifier observability events carry, so a journal
// line and a CacheStats counter refer to the same candidate by the same
// name. Off the hot path: only emitted events pay for it.
func keyHex(bn []int) string { return hex.EncodeToString([]byte(bindingKey(bn))) }
