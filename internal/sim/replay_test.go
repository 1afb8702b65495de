package sim

import (
	"bytes"
	"math"
	"testing"

	"github.com/payloadpark/payloadpark/internal/pcap"
	"github.com/payloadpark/payloadpark/internal/trafficgen"
)

// TestReplayDrivenTestbed replays a materialized pcap workload through
// the simulated deployment — the paper's actual methodology ("We replay
// PCAP files to simulate an enterprise datacenter traffic pattern").
func TestReplayDrivenTestbed(t *testing.T) {
	// Materialize a capture of the Fig. 6 workload.
	var buf bytes.Buffer
	genCfg := trafficgen.Config{
		Sizes: trafficgen.Datacenter{}, Flows: 256,
		SrcMAC: MACGen, DstMAC: MACNF,
		DstIP: [4]byte{10, 1, 0, 9}, DstPort: 80, Seed: 5,
	}
	if err := trafficgen.WriteWorkload(pcap.NewWriter(&buf), genCfg, 4000); err != nil {
		t.Fatal(err)
	}
	recs, err := pcap.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cfg := smokeConfig(true, 4)
	cfg.Name = "replay"
	cfg.Traffic.Source = func() trafficgen.Source {
		rp, err := trafficgen.NewReplay(recs, MACGen, MACNF)
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}
	res := cfg.run(t)
	if res.GoodputGbps <= 0 || res.Splits == 0 {
		t.Fatalf("replay run inert: %+v", res)
	}
	// The replayed workload matches the synthetic one statistically, so
	// goodput at equal offered load should agree closely.
	synth := smokeConfig(true, 4).run(t)
	if math.Abs(res.GoodputGbps-synth.GoodputGbps) > 0.05*synth.GoodputGbps {
		t.Errorf("replay goodput %.3f vs synthetic %.3f", res.GoodputGbps, synth.GoodputGbps)
	}
}
