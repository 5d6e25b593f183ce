package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Fingerprint returns a stable content hash of the topology's structure:
// node kinds with pod/rack placement, server attachments, and the full
// link list in insertion order. Two Realize() calls that produce the same
// wiring produce the same fingerprint, which is what lets route tables and
// LP solutions be reused across experiment cells (internal/parallel's
// caches key on it). The name is deliberately excluded — identical fabrics
// under different labels share cached work.
//
// Link order is part of the hash because downstream consumers (arc
// numbering in mcf, link IDs in route tables) depend on it: equal
// fingerprints guarantee bit-identical solver behavior, not just graph
// isomorphism.
func (t *Topology) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	wi := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	wf := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wi(len(t.Nodes))
	for _, n := range t.Nodes {
		wi(int(n.Kind))
		wi(n.Pod)
		wi(n.LocalIndex)
	}
	wi(t.pods)
	wi(len(t.servers))
	for _, s := range t.servers {
		wi(s)
		// An unattached server (-1) hashes as switch 0, which keeps the
		// encoding, and so every fingerprint, fixed.
		wi(max(t.attach[s], 0))
	}
	links := t.G.Links()
	wi(len(links))
	for _, l := range links {
		wi(l.A)
		wi(l.B)
		wf(l.Capacity)
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
