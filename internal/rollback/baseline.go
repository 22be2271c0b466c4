package rollback

import (
	"hydee/internal/checkpoint"
	"hydee/internal/transport"
)

// Native returns the no-fault-tolerance baseline: no logging, no
// piggybacking, no checkpoints. It is the "MPICH2" reference configuration
// of Figures 5 and 6. Its restart scope is empty: it cannot recover from
// failures.
func Native() Protocol { return baseline{name: "native"} }

// Coordinated returns the globally coordinated checkpointing baseline: a
// blocking coordinated checkpoint over all processes (Chandy–Lamport
// style channel flush with in-band markers, provided by the runtime), no
// message logging, no piggybacked protocol data, and a whole-application
// restart after any failure.
//
// It is the classical small-scale solution the paper contrasts HydEE with:
// perfect failure-free performance, no failure containment (every failure
// rolls back 100% of the processes), and a checkpoint I/O burst because all
// processes write their snapshots simultaneously (§VI).
func Coordinated() Protocol { return baseline{name: "coord", global: true} }

// baseline is both reference protocols. Neither logs nor piggybacks; they
// differ only in scope. A global baseline checkpoints and restarts every
// rank, the other neither checkpoints nor restarts any.
type baseline struct {
	name   string
	global bool
}

func (p baseline) Name() string { return p.name }

func (p baseline) NewEngine(rank int, px Proc) Engine {
	if !p.global {
		return &baselineEngine{}
	}
	return &baselineEngine{scope: allRanks(px.Topo().NP)}
}

// NewRecovery needs no coordinator: the global state a global restart
// restores is consistent by construction.
func (baseline) NewRecovery(rx RecoveryContext) Recovery { return nil }

func (p baseline) RestartScope(topo *Topology, failed []int) []int {
	if !p.global {
		return nil
	}
	return allRanks(topo.NP)
}

func allRanks(np int) []int {
	all := make([]int, np)
	for i := range all {
		all[i] = i
	}
	return all
}

// engineState is the checkpointed state. Its type and field names are
// part of the encoded bytes, and so of every checkpoint's volume.
type engineState struct {
	Date int64
}

// baselineEngine only maintains the logical date, so that traces stay
// comparable across protocols; it adds no protocol data to messages.
type baselineEngine struct {
	date int64
	// scope is the checkpoint scope, built once: every rank, ascending,
	// for the global baseline; nil, so never a checkpoint, for native.
	scope []int
}

func (e *baselineEngine) PreSend(m *transport.Msg) (SendVerdict, error) {
	e.date++
	m.Date = e.date
	m.Phase = 1
	return SendVerdict{}, nil
}

// Admit admits everything: after a global restart every in-flight message
// was discarded with the mailboxes, so all that arrives is current.
func (e *baselineEngine) Admit(m *transport.Msg) bool { return true }

func (e *baselineEngine) OnDeliver(m *transport.Msg) { e.date++ }

func (e *baselineEngine) OnCtl(m *transport.Msg) {}

func (e *baselineEngine) OnCheckpoint(s *checkpoint.Snapshot) {
	st := engineState{Date: e.date}
	s.DeferProtState(func() any { return st })
}

func (e *baselineEngine) OnRestore(s *checkpoint.Snapshot, round *RoundInfo) {
	if len(s.ProtState) == 0 {
		e.date = 0
		return
	}
	var st engineState
	if err := checkpoint.DecodeState(s.ProtState, &st); err == nil {
		e.date = st.Date
	}
}

func (e *baselineEngine) CheckpointScope() []int { return e.scope }
