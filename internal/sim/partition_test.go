package sim

import (
	"reflect"
	"testing"

	"github.com/payloadpark/payloadpark/internal/ctrl"
)

// TestGreedyPartitionPlacement: the partitioner is deterministic,
// balanced under its ceil(n/k) cap, and keeps a complete-bipartite
// leaf-spine graph's parts non-trivial.
func TestGreedyPartitionPlacement(t *testing.T) {
	adj := func(L, S int) [][]int {
		a := make([][]int, L+S)
		for i := 0; i < L; i++ {
			for s := 0; s < S; s++ {
				a[i] = append(a[i], L+s)
				a[L+s] = append(a[L+s], i)
			}
		}
		return a
	}
	for _, tc := range []struct{ L, S, k int }{
		{4, 2, 2}, {6, 3, 4}, {16, 8, 8}, {4, 2, 1}, {2, 1, 16},
	} {
		a := adj(tc.L, tc.S)
		got := greedyPartition(a, tc.k)
		if again := greedyPartition(a, tc.k); !reflect.DeepEqual(got, again) {
			t.Errorf("%dx%d k=%d: partitioner not deterministic: %v vs %v", tc.L, tc.S, tc.k, got, again)
		}
		k := tc.k
		if k > tc.L+tc.S {
			k = tc.L + tc.S
		}
		most := (tc.L + tc.S + k - 1) / k
		load := make([]int, k)
		for v, p := range got {
			if p < 0 || p >= k {
				t.Fatalf("%dx%d k=%d: node %d assigned out-of-range part %d", tc.L, tc.S, tc.k, v, p)
			}
			load[p]++
		}
		for p, n := range load {
			if n > most {
				t.Errorf("%dx%d k=%d: part %d holds %d nodes (cap %d)", tc.L, tc.S, tc.k, p, n, most)
			}
		}
	}
}

// TestLeafSpinePartitionParity is the tentpole's determinism contract:
// the partitioned conservative-sync runner produces byte-identical
// FabricResults across partition counts — including the failure-reroute
// golden — with partitions=1 being the reference serial timeline (ECMP
// runs a controller, which forces the serial run: see
// TestLeafSpinePartitionsWithController). Runs under -race in CI, which also pins the runner's
// barrier discipline.
func TestLeafSpinePartitionParity(t *testing.T) {
	cases := []struct {
		name string
		cfg  leafSpineRun
	}{
		{"4x2-edge", leafSpineSmoke(ParkEdge, 9)},
		{"4x2-everyhop", leafSpineSmoke(ParkEveryHop, 6)},
		{"6x3-fail", fabricRun(LeafSpine{Leaves: 6, Spines: 3, FailLink: true}, ParkEdge, 4e9,
			RunOptions{Seed: 3, WarmupNs: 2e6, MeasureNs: 10e6})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.cfg
			base.Opts.Partitions = 1
			want := base.run(t)
			for _, p := range []int{2, 4, 8} {
				cfg := tc.cfg
				cfg.Opts.Partitions = p
				if got := cfg.run(t); !reflect.DeepEqual(want, got) {
					t.Errorf("partitions=%d diverged from serial run:\nserial: %+v\nparallel: %+v", p, want, got)
				}
			}
		})
	}
}

// TestLeafSpinePartitionsWithController: a fabric-wide controller forces
// the serial timeline, so asking for partitions alongside it must be a
// no-op rather than a divergence.
func TestLeafSpinePartitionsWithController(t *testing.T) {
	cfg := leafSpineSmoke(ParkEdge, 6)
	cfg.Control = ctrl.Config{ECMP: true, Adaptive: true}
	want := cfg.run(t)
	cfg.Opts.Partitions = 4
	if got := cfg.run(t); !reflect.DeepEqual(want, got) {
		t.Errorf("controller run changed under partitions knob:\n%+v\n%+v", want, got)
	}
}
