package core

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// mmwaveCommand is the "mmwave" SP command, registered only on TopoMMWaveLTE
// deployments. It drives the dual-connectivity leg switch of the 5G
// scenario pack:
//
//	mmwave shed on    administratively down the mmWave leg; both ends'
//	                  routing falls back to the parallel LTE leg
//	mmwave shed off   bring the mmWave leg back up; it wins the routes
//	                  again (first-added prefix tie-break)
//	mmwave status     one-line report of both legs
//
// The shed verbs are idempotent so a policy rule can drive them
// through the command action (fire → "shed on", revert → "shed off")
// without tracking leg state itself.
func (s *System) mmwaveCommand(args []string) string {
	switch {
	case len(args) == 2 && args[0] == "shed" && (args[1] == "on" || args[1] == "off"):
		shed := args[1] == "on"
		if s.Wireless.Down() == shed {
			return "mmwave shed " + args[1] + " (no change)"
		}
		s.Wireless.SetDown(shed)
		kind := "restore"
		if shed {
			kind = "shed"
		}
		s.Obs.Emit("mmwave", kind, "", obs.F("leg", "mmwave"))
		return "mmwave shed " + args[1]
	case len(args) == 1 && args[0] == "status":
		return fmt.Sprintf("mmwave %s queued=%d | lte %s queued=%d",
			legState(s.Wireless), s.Wireless.QueuedAB(),
			legState(s.LTELink), s.LTELink.QueuedAB())
	default:
		return "error: usage: mmwave shed on|off | mmwave status"
	}
}

func legState(l *netsim.Link) string {
	if l.Down() {
		return "down"
	}
	return "up"
}
