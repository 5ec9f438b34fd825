package tiger

import (
	"fmt"

	"tiger/internal/msg"
)

// This file is the harness surface for controller failover (DESIGN §17):
// crashing the controller, restarting a new incarnation that scavenges
// the distributed schedule, and the one piece of bookkeeping the
// takeover needs from the harness: replaying the down set the dead
// incarnation knew about. An interrupted restripe needs none — the
// controller keeps its run across the restart and re-arms it itself.

// CrashController kills the controller mid-flight: it stops sending and
// receiving, and everything the dead incarnation had in flight is
// dropped. Admitted streams keep playing — the schedule lives in the
// cubs — but new admissions fail (Play retries with backoff) until
// RestartController brings up the next incarnation.
func (c *Cluster) CrashController() {
	if c.ctlDown {
		return
	}
	c.Controller.Crash()
	c.Net.Crash(msg.Controller)
	c.ctlDown = true
}

// RestartController cold-starts the next controller incarnation: bump
// the epoch (fencing everything the dead incarnation still had in
// flight), then rebuild the plays map, per-generation load, and parked
// set by scavenging the cubs' distributed schedule. The harness supplies
// the one piece of state that never lived in the schedule: the set of
// cubs currently down (a real deployment's rack controller would re-
// advise these).
func (c *Cluster) RestartController() {
	if !c.ctlDown {
		return
	}
	c.Net.Revive(msg.Controller)
	c.Controller.OnScavenged = func() {
		// Replay the down set first: the governor must know which disks
		// are unservable before it decides whether scavenged park tickets
		// can drain. NoteCubsDown is idempotent per cub.
		var down []msg.NodeID
		for i := range c.Cubs {
			if c.Net.Failed(msg.NodeID(i)) {
				down = append(down, msg.NodeID(i))
			}
		}
		if len(down) > 0 {
			c.Controller.NoteCubsDown(down)
		}
		if c.flight != nil {
			c.flight.capture(fmt.Sprintf("controller-takeover epoch %d", c.Controller.Epoch()), 0, -1)
		}
	}
	c.Controller.Restart()
	c.ctlDown = false
}

// ControllerDown reports whether the controller is currently crashed.
func (c *Cluster) ControllerDown() bool { return c.ctlDown }
