package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"

	"flattree/internal/flowsim"
	"flattree/internal/routing"
)

// pinsJSON holds the digests of every checked output at defaultSeed,
// keyed by workload and then by output. perfbench -pin regenerates it.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]map[string]string, error) {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// digester hashes a sequence of numbers.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

// newStreamDigester hashes with FNV-1a 64, cheap enough to run inside a
// timed per-flow callback.
func newStreamDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d *digester) int(x int) { d.u64(uint64(int64(x))) }

func (d *digester) result(id int, r flowsim.ConnResult) {
	d.int(id)
	d.f64(r.Start)
	d.f64(r.Finish)
	d.f64(r.Bits)
	d.f64(r.StallTime)
	d.int(r.Reroutes)
}

func (d *digester) sum() string {
	b := d.h.Sum(nil)
	return hex.EncodeToString(b[:min(16, len(b))])
}

func resultsDigest(rs []flowsim.ConnResult) string {
	d := newDigester()
	for i, r := range rs {
		d.result(i, r)
	}
	return d.sum()
}

// deltaDigest hashes a rule delta switch by switch in ascending order.
func (d *digester) delta(rd routing.RuleDelta) {
	for _, m := range []map[int]int{rd.Adds, rd.Dels} {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		d.int(len(keys))
		for _, k := range keys {
			d.int(k)
			d.int(m[k])
		}
	}
}

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}

// pinWorkload recomputes one workload's digests at defaultSeed and
// rewrites pins.json in the current directory (run it from perfbench/).
func pinWorkload(workload string) error {
	b, err := os.ReadFile("pins.json")
	if err != nil {
		return err
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(b, &pins); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	c := newChild(workload, defaultSeed)
	c.work, c.pinning = true, true
	if workload == wFlatd {
		err = pinFlatd(c)
	} else {
		err = runWorkload(c)
	}
	if err != nil {
		return err
	}
	if c.rep.Failed > 0 {
		return fmt.Errorf("pin %s: %d operations failed their invariants: %v", workload, c.rep.Failed, c.rep.Failures)
	}
	pins[workload] = c.rep.Pins
	if b, err = json.MarshalIndent(pins, "", "  "); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: pinned %d digests for %s\n", len(c.rep.Pins), workload)
	return os.WriteFile("pins.json", append(b, '\n'), 0o644)
}
