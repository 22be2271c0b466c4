// Package coord implements the globally coordinated checkpointing baseline:
// a blocking coordinated checkpoint over all processes (Chandy–Lamport
// style channel flush with in-band markers, provided by the runtime), no
// message logging, no piggybacked protocol data, and a whole-application
// restart after any failure.
//
// It is the classical small-scale solution the paper contrasts HydEE with:
// perfect failure-free performance, no failure containment (every failure
// rolls back 100% of the processes), and a checkpoint I/O burst because all
// processes write their snapshots simultaneously (§VI).
package coord

import (
	"hydee/internal/checkpoint"
	"hydee/internal/rollback"
	"hydee/internal/transport"
)

// Protocol is the coordinated-checkpointing baseline factory.
type Protocol struct{}

// New returns the baseline protocol.
func New() *Protocol { return &Protocol{} }

// Name implements rollback.Protocol.
func (*Protocol) Name() string { return "coord" }

// NewEngine implements rollback.Protocol.
func (*Protocol) NewEngine(rank int, px rollback.Proc) rollback.Engine {
	all := make([]int, px.Topo().NP)
	for i := range all {
		all[i] = i
	}
	return &engine{all: all}
}

// NewRecovery implements rollback.Protocol: a global restart needs no
// coordinator — the restored global state is consistent by construction.
func (*Protocol) NewRecovery(rx rollback.RecoveryContext) rollback.Recovery { return nil }

// RestartScope implements rollback.Protocol: everyone rolls back.
func (*Protocol) RestartScope(topo *rollback.Topology, failed []int) []int {
	all := make([]int, topo.NP)
	for i := range all {
		all[i] = i
	}
	return all
}

// Tolerates implements rollback.Protocol.
func (*Protocol) Tolerates() bool { return true }

type engineState struct {
	Date int64
}

type engine struct {
	date int64
	// all is every rank, ascending: the checkpoint scope, built once.
	all []int
}

// PreSend implements rollback.Engine: no logging, no piggyback.
func (e *engine) PreSend(m *transport.Msg) (rollback.SendVerdict, error) {
	e.date++
	m.Date = e.date
	m.Phase = 1
	return rollback.SendVerdict{}, nil
}

// Admit implements rollback.Engine. After a global restart every in-flight
// message was discarded with the mailboxes, so everything that arrives is
// current.
func (e *engine) Admit(m *transport.Msg) bool { return true }

// OnDeliver implements rollback.Engine.
func (e *engine) OnDeliver(m *transport.Msg) { e.date++ }

// OnCtl implements rollback.Engine.
func (e *engine) OnCtl(m *transport.Msg) {}

// OnCheckpoint implements rollback.Engine.
func (e *engine) OnCheckpoint(s *checkpoint.Snapshot) {
	s.DeferProtState(engineState{Date: e.date})
}

// OnRestore implements rollback.Engine.
func (e *engine) OnRestore(s *checkpoint.Snapshot, round *rollback.RoundInfo) {
	if len(s.ProtState) == 0 {
		e.date = 0
		return
	}
	var st engineState
	if err := checkpoint.DecodeState(s.ProtState, &st); err == nil {
		e.date = st.Date
	}
}

// CheckpointScope implements rollback.Engine: all processes coordinate.
func (e *engine) CheckpointScope() []int { return e.all }
