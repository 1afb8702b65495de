package scenario

import (
	"context"

	"github.com/payloadpark/payloadpark/internal/live"
	"github.com/payloadpark/payloadpark/internal/packet"
	"github.com/payloadpark/payloadpark/internal/sim"
)

// Live is the socket-backed deployment (internal/live): the same Parking,
// Traffic, Control and Opts sections on real loopback sockets, so one
// scenario file runs simulated or live by swapping the topology envelope.
type Live live.Topology

// Kind implements Topology.
func (Live) Kind() string { return "live" }

func (l Live) run(ctx context.Context, s *Scenario, w sim.Wiring) (*Report, error) {
	// The one rule kept here: Observe is the scenario's, not a runner section.
	if s.Observe.Trace {
		return nil, errf("live: Observe.Trace is simulated-topology only (flight recording needs the deterministic sim clock); Observe.Metrics works live")
	}
	res, err := live.Run(ctx, live.Topology(l), s.sections(), live.Wiring{Metrics: w.Obs.Metrics})
	if err != nil {
		return nil, errf("%w", err) // live's errors carry the "live:" prefix
	}
	unaccounted := res.Sent - res.Delivered - res.NFDropped - res.NFNotified
	rep := &Report{
		Delivered: res.Delivered,
		Premature: res.Counters.PrematureEvictions.Value(),
		Healthy:   true,
		Control:   res.Control,
		Live:      res,
	}
	if res.ElapsedNs > 0 {
		rep.SendGbps = 8 * float64(res.SentBytes) / float64(res.ElapsedNs)
		// the header units that reached the NF, as a simulated edge counts them
		rep.GoodputGbps = packet.HeaderUnitLen * 8 * float64(res.NFReceived) / float64(res.ElapsedNs)
	}
	if res.Sent > 0 {
		rep.UnintendedDropRate = float64(unaccounted) / float64(res.Sent)
		rep.Healthy = rep.UnintendedDropRate < sim.HealthyDropRate
	}
	return rep, nil
}
