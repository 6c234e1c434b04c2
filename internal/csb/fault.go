// Fault hooks for the CSB: a stuck tag bit, the one CSB-resident fault
// class from internal/fault, fires here. It is detected by the chain
// controller when the defective subarray is searched — modeled as a
// typed panic out of Run that the serving layer's recover converts to
// an error, so no corrupted tag ever reaches architectural state.
package csb

import (
	"cape/internal/chain"
	"cape/internal/fault"
	"cape/internal/obs"
)

// ArmFaults installs a per-attempt fault plan: inj supplies fault
// sites, stuckRun is the Run call index (from this arming) at which a
// stuck tag bit fires, -1 for never. The run counter restarts at every
// arming, so retry attempts replay the plan from zero.
func (c *CSB) ArmFaults(inj *fault.Injector, stuckRun int64) {
	c.finj = inj
	c.stuckAtRun = stuckRun
	c.runIdx = 0
}

// DisarmFaults removes any armed fault plan.
func (c *CSB) DisarmFaults() {
	c.finj = nil
	c.stuckAtRun = -1
}

// faultTick advances the per-attempt run counter and fires any fault
// scheduled for this run. Only called when a plan is armed, so the
// fault-free hot path pays a single nil check in Run.
func (c *CSB) faultTick() {
	run := c.runIdx
	c.runIdx++
	if run == c.stuckAtRun {
		ch, sub := c.finj.PickSite(c.n, chain.SubPerChain)
		if c.rec != nil && c.rec.Sample() {
			c.rec.HostSpan("fault.stuck_tag", obs.StageCSB, c.rec.SinceNS(), 0,
				"chain", int64(ch))
		}
		panic(fault.Errorf(fault.ClassStuckTag,
			"stuck tag bit detected: chain %d subarray %d (run %d)", ch, sub, run))
	}
}
