// Package maglev implements the Maglev consistent-hashing lookup table
// (Eisenbud et al., NSDI 2016), which the paper's load-balancer NF is
// based on (§6.1: "The load balancer is based on the Maglev
// load-balancer").
//
// Each backend generates a permutation of table positions from two hashes
// of its name (offset and skip); backends take turns claiming their next
// preferred position until the table fills. The construction gives near-
// perfectly balanced assignment and minimal disruption when the backend
// set changes.
package maglev

import (
	"errors"
	"hash/fnv"
	"sort"
)

// DefaultTableSize is a small prime suited to the handful of backends in
// the paper's testbed. Production Maglev uses 65537; the size must be
// prime for the skip values to generate full permutations.
const DefaultTableSize = 2039

// ErrNoBackends is returned when building a table with no backends.
var ErrNoBackends = errors.New("maglev: no backends")

// Table is an immutable Maglev lookup table. Create with New; rebuild to
// change the backend set.
type Table struct {
	backends []string
	size     uint64
	entries  []int // position -> backend index
}

// New builds a lookup table of the given prime size over the backend
// names. Backend order does not affect the assignment (names are sorted
// internally, as the construction is permutation-driven).
func New(backends []string, size uint64) (*Table, error) {
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	if size == 0 {
		size = DefaultTableSize
	}
	names := append([]string(nil), backends...)
	sort.Strings(names)

	t := &Table{backends: names, size: size, entries: make([]int, size)}
	t.populate()
	return t, nil
}

func hashOf(s string, seed byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte{seed})
	h.Write([]byte(s))
	return h.Sum64()
}

// populate fills the table using each backend's (offset, skip) permutation,
// exactly as in the Maglev paper's Algorithm 1.
func (t *Table) populate() {
	n := len(t.backends)
	offsets := make([]uint64, n)
	skips := make([]uint64, n)
	next := make([]uint64, n)
	for i, b := range t.backends {
		offsets[i] = hashOf(b, 0x01) % t.size
		skips[i] = hashOf(b, 0x02)%(t.size-1) + 1
	}
	for i := range t.entries {
		t.entries[i] = -1
	}
	filled := uint64(0)
	for filled < t.size {
		for i := 0; i < n && filled < t.size; i++ {
			// Walk backend i's permutation to its next unclaimed position.
			for {
				pos := (offsets[i] + next[i]*skips[i]) % t.size
				next[i]++
				if t.entries[pos] == -1 {
					t.entries[pos] = i
					filled++
					break
				}
			}
		}
	}
}

// Lookup returns the backend for a flow hash.
func (t *Table) Lookup(flowHash uint64) string {
	return t.backends[t.entries[flowHash%t.size]]
}
