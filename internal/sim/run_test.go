package sim

import "testing"

// The runners take (topology, Sections, Wiring). Tests build one
// description, tweak a field and run it, so these bundles group a
// runner's arguments — by embedding, not by restating a field — and fail
// the test on a rejected description.

type testbedRun struct {
	Testbed
	Sections
	Wiring
}

func (r testbedRun) run(t testing.TB) Result {
	t.Helper()
	res, err := RunTestbed(r.Testbed, r.Sections, r.Wiring)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type multiServerRun struct {
	MultiServer
	Sections
	Wiring
}

func (r multiServerRun) run(t testing.TB) MultiServerResult {
	t.Helper()
	res, err := RunMultiServer(r.MultiServer, r.Sections, r.Wiring)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type leafSpineRun struct {
	LeafSpine
	Sections
	Wiring
}

// run is RunLeafSpine: a controller ticks iff Control is enabled.
func (r leafSpineRun) run(t testing.TB) FabricResult {
	t.Helper()
	res, err := RunLeafSpine(r.LeafSpine, r.Sections, r.Wiring)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fabricRun spells a leaf-spine description the way the fabric tests
// vary it: geometry (and failure scenario), parking mode, offered load
// per source, and the seed/window options.
func fabricRun(l LeafSpine, mode ParkMode, sendBps float64, o RunOptions) leafSpineRun {
	return leafSpineRun{LeafSpine: l, Sections: Sections{
		Parking: Parking{Mode: mode},
		Traffic: Traffic{SendBps: sendBps},
		Opts:    o,
	}}
}
