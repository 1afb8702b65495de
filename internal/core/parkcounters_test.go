package core_test

import (
	"reflect"
	"testing"

	"github.com/payloadpark/payloadpark/internal/core"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// realise builds the one switch of a 2-server multi-server graph.
func realise(t *testing.T, mode sim.ParkMode) *core.Switch {
	t.Helper()
	m, s := sim.MultiServer{Servers: 2}, sim.Sections{Parking: sim.Parking{Mode: mode, Slots: 1024}}
	m.Resolve(&s)
	sws, err := m.Graph(s).RealiseAll()
	if err != nil {
		t.Fatal(err)
	}
	return sws[0]
}

// TestParkCountersSumsPrograms: a switch with two parking programs sums
// their records field by field, and a baseline switch returns a zero
// record.
func TestParkCountersSumsPrograms(t *testing.T) {
	sw := realise(t, sim.ParkEdge)
	progs := sw.Programs()
	if len(progs) != 2 {
		t.Fatalf("%d parking programs, want 2", len(progs))
	}
	n := reflect.TypeOf(core.Counters{}).NumField()
	for k, p := range progs {
		c := reflect.ValueOf(&p.C).Elem()
		for i := range n {
			c.Field(i).SetUint(uint64(1000*(k+1) + i))
		}
	}
	got := sw.ParkCounters()
	for i := range n {
		want := uint64(1000+i) + uint64(2000+i)
		if v := reflect.ValueOf(got).Field(i).Uint(); v != want {
			t.Errorf("%s = %d, want %d", reflect.TypeOf(got).Field(i).Name, v, want)
		}
	}

	if got := realise(t, sim.ParkNone).ParkCounters(); got != (core.Counters{}) {
		t.Errorf("baseline switch: %+v, want a zero record", got)
	}
}
