package scenario

import (
	"context"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// Live is the socket-backed deployment (internal/live): the same Parking,
// Traffic, Control and Opts sections on real loopback sockets, so one
// scenario file runs simulated or live by swapping the topology envelope.
type Live live.Topology

// Kind implements Topology.
func (Live) Kind() string { return "live" }

func (l Live) validate(s *Scenario) error {
	if s.Chain != nil {
		return errf("live: custom Chain unsupported (the socket NF pins firewall+MAC-swap)")
	}
	if s.Traffic.Source != nil {
		return errf("live: Traffic.Source unsupported")
	}
	if s.Parking.Mode == sim.ParkEveryHop {
		return errf("live: ParkEveryHop unsupported (the socket fabric parks at the edge)")
	}
	if s.Parking.Recirculate || s.Parking.BoundaryOffset != 0 {
		return errf("live: Recirculate/BoundaryOffset unsupported")
	}
	if s.Program.Enabled() || s.Program.Spec != nil {
		return errf("live: table programs unsupported (use Testbed or LeafSpine)")
	}
	if s.Control.ECMP {
		return errf("live: ECMP unsupported (the socket fabric routes statically)")
	}
	if s.Observe.Trace {
		return errf("live: Observe.Trace is simulated-topology only (flight recording needs the deterministic sim clock); Observe.Metrics works live")
	}
	return nil
}

func (l Live) run(ctx context.Context, s *Scenario) (*Report, error) {
	ob := newObsSetup(s.Observe)
	res, err := live.Run(ctx, live.Topology(l), s.sections(), live.Wiring{Metrics: ob.reg})
	if err != nil {
		return nil, errf("%w", err) // live's errors carry the "live:" prefix
	}
	unaccounted := res.Sent - res.Delivered - res.NFDropped - res.NFNotified
	rep := &Report{
		GoodputGbps: res.Gbps,
		Delivered:   res.Delivered,
		Premature:   res.Counters.PrematureEvictions,
		Healthy:     true,
		Live:        res,
	}
	if res.Sent > 0 {
		rep.UnintendedDropRate = float64(unaccounted) / float64(res.Sent)
		rep.Healthy = rep.UnintendedDropRate < sim.HealthyDropRate
	}
	ob.finish(rep)
	return rep, nil
}
