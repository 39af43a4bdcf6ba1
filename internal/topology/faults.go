// Cluster-level fault controller. Every directed wire of a fabric is
// registered by name at construction time (in construction order, which is a
// pure function of the spec — never of the shard count), so a fault schedule
// can address "pod0.spine1.p8" or "n3->pod0.leaf0" without knowing how the
// builder wired it. Fault state is installed lazily and only on runs whose
// schedule names a link: a fault-free run builds the registry (pure
// bookkeeping, no RNG, no events) and touches nothing else, keeping its
// schedule byte-identical to pre-fault builds.
package topology

import (
	"fmt"

	"repro/internal/ibswitch"
	"repro/internal/link"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/units"
)

// faultLink is one registered directed link, local or cross-shard. acct is
// the receiving side's ingress accounting (nil toward an RNIC): the port's
// BufferGate on a local link, the link's CrossRecvGate on a cross-shard
// one. sw/port name the egress the sending side schedules from (nil for
// RNIC-owned wires, which cannot flap — their transmitter has no failover).
type faultLink struct {
	eng    *sim.Engine // the SENDING shard's engine
	wire   *link.Wire
	acct   link.IngressAccounting
	sw     *ibswitch.Switch
	port   int
	faults *link.Faults // installed on first use
}

// registerWire records a wire under its diagnostic name.
func (c *Cluster) registerWire(eng *sim.Engine, w *link.Wire, acct link.IngressAccounting, sw *ibswitch.Switch, port int) {
	if c.links == nil {
		c.links = make(map[string]*faultLink)
	}
	name := w.Name()
	if _, dup := c.links[name]; dup {
		panic(fmt.Sprintf("topology: duplicate link name %q", name))
	}
	c.links[name] = &faultLink{eng: eng, wire: w, acct: acct, sw: sw, port: port}
	c.linkNames = append(c.linkNames, name)
}

// LinkNames returns the registered directed link names in construction
// order (shard-count-independent).
func (c *Cluster) LinkNames() []string { return c.linkNames }

func (c *Cluster) linkByName(name string) (*faultLink, error) {
	fl, ok := c.links[name]
	if !ok {
		return nil, fmt.Errorf("topology: unknown link %q (see Cluster.LinkNames)", name)
	}
	return fl, nil
}

func (c *Cluster) faultsOn(fl *faultLink) *link.Faults {
	if fl.faults != nil {
		return fl.faults
	}
	fl.faults = link.NewFaults()
	fl.wire.InstallFaults(fl.faults, fl.acct)
	return fl.faults
}

// SetLinkDrop arms Bernoulli loss on the named link. The drop stream is
// split from the cluster root by link name, after construction has taken
// its splits in a fixed order, so it depends on the seed, the fabric, the
// link and the drop entries armed before it — never on shard count. Call
// in the schedule's declared order: each Split advances the root.
func (c *Cluster) SetLinkDrop(name string, prob float64) error {
	fl, err := c.linkByName(name)
	if err != nil {
		return err
	}
	if prob < 0 || prob >= 1 {
		return fmt.Errorf("topology: drop probability %v out of range [0,1)", prob)
	}
	c.faultsOn(fl).SetDrop(prob, c.RNG("faultdrop:"+name))
	return nil
}

// FlapLink schedules a down/up transition pair on the named link: at downAt
// the owning egress port stops starting transmissions (new arrivals fail
// over per the switch's registered uplink groups), at upAt it heals and
// drains. Only switch-owned egresses can flap — an RNIC transmitter has no
// alternative path to fail over to.
func (c *Cluster) FlapLink(name string, downAt, upAt units.Time) error {
	fl, err := c.linkByName(name)
	if err != nil {
		return err
	}
	if fl.sw == nil {
		return fmt.Errorf("topology: link %q has no owning switch egress; only switch ports can flap", name)
	}
	if downAt < 0 || upAt <= downAt {
		return fmt.Errorf("topology: flap interval [%v, %v) on %q is empty or negative", downAt, upAt, name)
	}
	f := c.faultsOn(fl)
	sw, port := fl.sw, fl.port
	fl.eng.At(downAt, "fault:down", func() {
		sw.SetPortDown(port, true)
		f.DownUntil = upAt
	})
	fl.eng.At(upAt, "fault:up", func() {
		sw.SetPortDown(port, false)
	})
	return nil
}

// DegradeLink schedules a degraded-rate interval on the named link:
// serialization stretches by scale (>1 = slower) from `from` until `until`.
func (c *Cluster) DegradeLink(name string, from, until units.Time, scale float64) error {
	fl, err := c.linkByName(name)
	if err != nil {
		return err
	}
	if scale <= 1 {
		return fmt.Errorf("topology: degraded-rate scale %v must exceed 1", scale)
	}
	if from < 0 || until <= from {
		return fmt.Errorf("topology: degraded interval [%v, %v) on %q is empty or negative", from, until, name)
	}
	f := c.faultsOn(fl)
	fl.eng.At(from, "fault:degrade", func() {
		f.SetDegraded(until, scale)
	})
	return nil
}

// EnableReliability arms RC reliability on every NIC. Fabric-wide by
// construction: PSN admission assumes all RC senders stamp sequence
// numbers, so per-NIC arming would misclassify unstamped streams.
func (c *Cluster) EnableReliability(ackTimeout units.Duration, maxRetries int) {
	for _, n := range c.NICs {
		n.EnableReliability(ackTimeout, maxRetries)
	}
}

// FaultTotals sums the send/drop counters over every installed fault state.
// Read only after the run completes (the shard barrier orders the writes).
func (c *Cluster) FaultTotals() (sent, drops uint64) {
	for _, name := range c.linkNames {
		if f := c.links[name].faults; f != nil {
			sent += f.Sent
			drops += f.Drops
		}
	}
	return sent, drops
}

// FailoverTotal sums the failed-over packet count over every switch.
func (c *Cluster) FailoverTotal() uint64 {
	var total uint64
	for _, sw := range c.Switches {
		total += sw.FailedOver
	}
	return total
}

// RelTotals aggregates the per-NIC reliability counters (zero when
// reliability is disabled). LastRecovery is the fabric-wide maximum.
func (c *Cluster) RelTotals() rnic.RelStats {
	var total rnic.RelStats
	for _, n := range c.NICs {
		s := n.RelStats()
		total.Retransmits += s.Retransmits
		total.RNRBackoffs += s.RNRBackoffs
		total.QPErrors += s.QPErrors
		total.DupPSN += s.DupPSN
		total.Gaps += s.Gaps
		total.Recovered += s.Recovered
		if s.LastRecovery > total.LastRecovery {
			total.LastRecovery = s.LastRecovery
		}
	}
	return total
}
