package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestPoliciesRun executes the policies experiment in quick mode and
// checks the comparison is directionally right: parking and compression
// each slim the NF link vs baseline, and combined they slim it beyond
// either alone.
func TestPoliciesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment run")
	}
	res, err := collectPolicies(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Index the healthy 512 B / 16 Gbps cells by policy.
	toNF := map[string]float64{}
	for _, policy := range policyNames {
		r, ok := res.Runs[policyTestbedName(policy, 512, 16)]
		if !ok {
			t.Fatalf("no 512B/16G run for %s", policy)
		}
		if !r.Healthy {
			t.Errorf("%s unhealthy at 16 Gbps", policy)
		}
		toNF[policy] = r.Testbed.ToNFGbps
	}
	base := toNF["baseline"]
	if toNF["park"] >= base || toNF["compress"] >= base {
		t.Errorf("single policies did not slim the NF link: %v", toNF)
	}
	if both := toNF["park+compress"]; both >= toNF["park"] || both >= toNF["compress"] {
		t.Errorf("combined policy did not slim beyond either alone: %v", toNF)
	}
	for _, policy := range policyNames {
		for _, send := range policySends {
			name := policyTestbedName(policy, 512, send)
			r := res.Runs[name]
			if parks := strings.Contains(policy, "park"); parks && r.Testbed.Splits == 0 {
				t.Errorf("%s: no splits", name)
			}
			if compresses := strings.Contains(policy, "compress"); compresses != (sumCompressions(r) != 0) {
				t.Errorf("%s: compressions = %d", name, sumCompressions(r))
			}
		}
	}

	// Fabric points: four runs, compression slims the spine hops.
	spine := map[string]float64{}
	for _, policy := range policyNames {
		r, ok := res.Runs["policies-fabric-"+policy]
		if !ok {
			t.Fatalf("no fabric run for %s", policy)
		}
		spine[policy] = spineGbits(r)
	}
	if spine["compress"] >= spine["baseline"] {
		t.Errorf("fabric compression did not slim spine hops: %v", spine)
	}
	if spine["park+compress"] >= spine["park"] {
		t.Errorf("fabric combined policy did not slim beyond parking: %v", spine)
	}

	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"policy", "park+compress", "leaf-spine"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
