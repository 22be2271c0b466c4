package rollback

import (
	"hydee/internal/checkpoint"
	"hydee/internal/transport"
)

// Native returns the no-fault-tolerance baseline: no logging, no
// piggybacking, no checkpoints. It is the "MPICH2" reference configuration
// of Figures 5 and 6. It cannot recover from failures.
func Native() Protocol { return nativeProtocol{} }

type nativeProtocol struct{}

func (nativeProtocol) Name() string { return "native" }

func (nativeProtocol) NewEngine(rank int, px Proc) Engine {
	return &nativeEngine{}
}

func (nativeProtocol) NewRecovery(rx RecoveryContext) Recovery { return nil }

func (nativeProtocol) RestartScope(topo *Topology, failed []int) []int {
	// Irrelevant: Tolerates() is false, a failure aborts the run.
	return failed
}

func (nativeProtocol) Tolerates() bool { return false }

// nativeEngine only maintains the logical date so that traces stay
// comparable across protocols; it adds no protocol data to messages.
type nativeEngine struct {
	date int64
}

func (e *nativeEngine) PreSend(m *transport.Msg) (SendVerdict, error) {
	e.date++
	m.Date = e.date
	m.Phase = 1
	return SendVerdict{}, nil
}

func (e *nativeEngine) Admit(m *transport.Msg) bool { return true }

func (e *nativeEngine) OnDeliver(m *transport.Msg) { e.date++ }

func (e *nativeEngine) OnCtl(m *transport.Msg) {}

func (e *nativeEngine) OnCheckpoint(s *checkpoint.Snapshot) {}

func (e *nativeEngine) OnRestore(s *checkpoint.Snapshot, round *RoundInfo) {}

func (e *nativeEngine) CheckpointScope() []int { return nil }
