package chaos

import (
	"distcoord/internal/graph"
	"distcoord/internal/simnet"
	"distcoord/internal/telemetry"
)

// Monitor is a simnet.Listener that feeds flow outcomes into a
// telemetry.RecoveryTracker and relates them to a fault schedule,
// producing per-fault recovery reports: how deep the success-rate dip
// was, how long until pre-fault service levels returned, and how many
// flows each fault cost. Wire it as (or compose it into) Config.Listener
// of a run with Config.Faults set to the schedule's faults.
type Monitor struct {
	simnet.NopListener
	schedule *Schedule
	tracker  *telemetry.RecoveryTracker
}

// NewMonitor returns a monitor for the given schedule. bucket is the
// tracker's time-bucket width; non-positive picks the tracker default.
func NewMonitor(schedule *Schedule, bucket float64) *Monitor {
	return &Monitor{
		schedule: schedule,
		tracker:  telemetry.NewRecoveryTracker(bucket),
	}
}

// OnFlowEnd implements simnet.Listener.
func (m *Monitor) OnFlowEnd(f *simnet.Flow, success bool, cause simnet.DropCause, now float64) {
	delay := 0.0
	if success {
		delay = now - f.Arrival
	}
	m.tracker.Observe(now, success, delay)
}

// FaultReport is the JSON-facing recovery summary for one disruptive
// fault injection.
type FaultReport struct {
	Time float64 `json:"time"`
	Kind string  `json:"kind"`
	// Node / Link / Agent identify the victim; −1 when not applicable.
	Node  int `json:"node"`
	Link  int `json:"link"`
	Agent int `json:"agent"`
	telemetry.RecoveryStat
}

// Report analyzes the observed outcomes against the schedule's
// disruptive fault times. Call it after the run completes.
func (m *Monitor) Report() []FaultReport {
	times := m.schedule.DisruptiveTimes()
	stats := m.tracker.Analyze(times)
	reports := make([]FaultReport, len(stats))
	for i, st := range stats {
		r := FaultReport{Time: st.FaultTime, Node: -1, Link: -1, Agent: -1, RecoveryStat: st}
		// Describe the (first) disruptive fault at this injection time.
		for _, ft := range m.schedule.Faults {
			if ft.Time == st.FaultTime && ft.Kind.Disruptive() {
				r.Kind = ft.Kind.String()
				switch ft.Kind {
				case simnet.FaultNodeDown, simnet.FaultInstanceKill:
					r.Node = int(ft.Node)
				case simnet.FaultLinkDown, simnet.FaultLinkDegrade:
					r.Link = ft.Link
				}
				break
			}
		}
		if r.Kind == "" {
			for _, k := range m.schedule.AgentKills {
				if k.Time == st.FaultTime {
					r.Kind = ProfileAgentKill
					r.Agent = k.Agent
					break
				}
			}
		}
		reports[i] = r
	}
	return reports
}

// Listeners composes several simnet listeners into one; events fan out
// in order. It lets a chaos Monitor ride alongside an existing listener
// without the simulator knowing about composition.
type Listeners []simnet.Listener

// OnAction implements simnet.Listener.
func (ls Listeners) OnAction(f *simnet.Flow, v graph.NodeID, now float64, action int, res simnet.ActionResult) {
	for _, l := range ls {
		l.OnAction(f, v, now, action, res)
	}
}

// OnTraversed implements simnet.Listener.
func (ls Listeners) OnTraversed(f *simnet.Flow, v graph.NodeID, now float64) {
	for _, l := range ls {
		l.OnTraversed(f, v, now)
	}
}

// OnFlowEnd implements simnet.Listener.
func (ls Listeners) OnFlowEnd(f *simnet.Flow, success bool, cause simnet.DropCause, now float64) {
	for _, l := range ls {
		l.OnFlowEnd(f, success, cause, now)
	}
}
