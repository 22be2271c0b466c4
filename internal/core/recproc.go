package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"hydee/internal/rollback"
)

// sortedKeys returns a map's keys in ascending order, so control
// fan-outs are emitted in a deterministic sequence.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	return slices.Sorted(maps.Keys(m))
}

// recovery is the per-round recovery process of Algorithm 4. It is launched
// when a failure occurs, collects one report from every application
// process, and gates message (re)sending by phase: nothing may be (re)sent
// in phase p while an orphan message of a phase strictly below p is
// outstanding.
type recovery struct {
	rx rollback.RecoveryContext
}

// Run implements rollback.Recovery.
func (rp *recovery) Run(round rollback.RoundInfo) (rollback.RecoveryStats, error) {
	np := rp.rx.Topo().NP
	stats := rollback.RecoveryStats{
		Round:      round.Round,
		RolledBack: len(round.RolledBack),
		StartVT:    round.DetectVT,
	}

	// Announce the round so survivors know which rollback notifications
	// to collect before reporting. Every process shares the round's one
	// AllIncs vector, read-only (incView).
	start := RoundStart{
		Round:      round.Round,
		RolledBack: append([]int(nil), round.RolledBack...),
		AllIncs:    round.AllIncs,
	}
	for r := 0; r < np; r++ {
		rp.rx.SendCtl(r, start, wireRoundStart)
		stats.CtlMsgs++
	}

	// NbOrphanPhase / MsgLPhase / ProcessPhase of Algorithm 4. Every
	// process reports once, so a rank is listed at most once per phase.
	nbOrphan := make(map[int]int)
	logProcs := make(map[int][]int)
	msgProcs := make(map[int][]int)

	reports := 0
	for reports < np {
		m, err := rp.rx.Recv()
		if err != nil {
			return stats, fmt.Errorf("core: recovery round %d: %w", round.Round, err)
		}
		switch b := m.CtlBody.(type) {
		case Report:
			if b.Round != round.Round {
				continue
			}
			reports++
			for _, ph := range b.OrphanPhases {
				nbOrphan[ph]++
				stats.Orphans++
			}
			for _, ph := range b.LogPhases {
				logProcs[ph] = append(logProcs[ph], m.Src)
			}
			msgProcs[b.OwnPhase] = append(msgProcs[b.OwnPhase], m.Src)
		case OrphanNotification:
			// Cannot normally precede the report barrier (senders are
			// gated), but handle defensively.
			if b.Round == round.Round {
				nbOrphan[b.Phase]--
			}
		}
	}

	// The release fan-out iterates maps; sends must not follow Go's random
	// map order. Two notifications to the same destination would otherwise
	// swap their channel positions between runs, and the destination's
	// behaviour (when it resends logs vs when its program resumes sending)
	// — and with it the makespan — would depend on the iteration order.
	release := func() error {
		minBlocked := int(^uint(0) >> 1) // max int
		// Sorted so a protocol-violation error always names the lowest
		// offending phase, not whichever one map order surfaced first.
		for _, ph := range sortedKeys(nbOrphan) {
			n := nbOrphan[ph]
			if n < 0 {
				return fmt.Errorf("core: recovery round %d: orphan count for phase %d went negative (replayed sends diverge from the pre-failure execution): %w", round.Round, ph, rollback.ErrNotSendDeterministic)
			}
			if n > 0 && ph < minBlocked {
				minBlocked = ph
			}
		}
		// NotifySendLog: logged messages of phase p may be re-sent when no
		// orphan of a phase strictly below p is outstanding (lines 17-20).
		perProc := make(map[int]int)
		for _, ph := range sortedKeys(logProcs) {
			if ph > minBlocked {
				continue
			}
			for _, proc := range logProcs[ph] {
				if cur, ok := perProc[proc]; !ok || ph > cur {
					perProc[proc] = ph
				}
			}
			delete(logProcs, ph)
		}
		for _, proc := range sortedKeys(perProc) {
			rp.rx.SendCtl(proc, NotifySendLog{Round: round.Round, Phase: perProc[proc]}, wireNotify)
			stats.CtlMsgs++
		}
		// NotifySendMsg: a process reported in phase p may send when no
		// orphan of a phase strictly below p is outstanding (lines 21-23).
		for _, ph := range sortedKeys(msgProcs) {
			if ph > minBlocked {
				continue
			}
			slices.Sort(msgProcs[ph]) // reports arrive in any order
			for _, proc := range msgProcs[ph] {
				rp.rx.SendCtl(proc, NotifySendMsg{Round: round.Round, Phase: ph}, wireNotify)
				stats.CtlMsgs++
			}
			delete(msgProcs, ph)
		}
		return nil
	}

	outstanding := func() bool {
		if len(logProcs) > 0 || len(msgProcs) > 0 {
			return true
		}
		for _, n := range nbOrphan {
			if n > 0 {
				return true
			}
		}
		return false
	}

	if err := release(); err != nil {
		return stats, err
	}
	for outstanding() {
		m, err := rp.rx.Recv()
		if err != nil {
			return stats, fmt.Errorf("core: recovery round %d: %w", round.Round, err)
		}
		b, ok := m.CtlBody.(OrphanNotification)
		if !ok || b.Round != round.Round {
			continue
		}
		nbOrphan[b.Phase]--
		if nbOrphan[b.Phase] == 0 {
			delete(nbOrphan, b.Phase)
			if err := release(); err != nil {
				return stats, err
			}
		} else if nbOrphan[b.Phase] < 0 {
			return stats, fmt.Errorf("core: recovery round %d: orphan count for phase %d went negative (replayed sends diverge from the pre-failure execution): %w", round.Round, b.Phase, rollback.ErrNotSendDeterministic)
		}
	}
	stats.EndVT = rp.rx.Now()
	return stats, nil
}
