package core

// Control-message bodies exchanged by the HydEE engines and the recovery
// process. The transport is in-memory, so bodies travel as typed values;
// the WireLen passed alongside models their on-the-wire size.

// RoundStart is broadcast by the recovery process when a recovery round
// begins: it tells every process which clusters rolled back so it can
// collect the corresponding rollback notifications before reporting.
type RoundStart struct {
	Round      int
	RolledBack []int
	// AllIncs is the current incarnation of every rank: the round's
	// RoundInfo.AllIncs itself, shared by every receiver and never written.
	AllIncs []int32
}

// RollbackNote is sent by each restarted process to every process outside
// its cluster (Algorithm 2 line 6). In addition to the date the process
// restarts from, it carries the per-channel watermark of what the restarted
// process still holds from the destination (DESIGN.md deviation 1), which
// doubles as the LastDate answer between two concurrently-restarted
// processes, and the new incarnation number.
type RollbackNote struct {
	Round int
	// RestartDate is the sender's logical date restored from its
	// checkpoint; messages it had sent with a later date are orphans.
	RestartDate int64
	// HeldFromYou is the maximum date of messages from the destination
	// that the restarted sender holds (delivered into its checkpointed
	// RPP or buffered in its checkpointed mailbox). The destination
	// re-sends its logged messages above this watermark.
	HeldFromYou int64
	// NewInc is the sender's incarnation after restart.
	NewInc int32
}

// LastDate is the survivor's answer to a RollbackNote (Algorithm 3 line 9):
// the maximum date the survivor holds from the restarted process, used by
// the restarted process to suppress re-executed orphan sends.
type LastDate struct {
	Round int
	Held  int64
}

// Report aggregates what the paper sends as three separate messages
// (Log, Orphan, OwnPhase — Algorithm 3 lines 15-17 and Algorithm 2 line 7).
type Report struct {
	Round int
	// OwnPhase is the process's current phase (restored phase for a
	// rolled-back process); its first post-failure send is gated on it.
	OwnPhase int
	// LogPhases lists the phases of the logged messages this process must
	// re-send (one entry per phase value present).
	LogPhases []int
	// OrphanPhases lists the phase of each orphan message this process
	// holds (one entry per orphan message).
	OrphanPhases []int
}

// OrphanNotification tells the recovery process that a re-executed orphan
// send was suppressed (Algorithm 2 line 15).
type OrphanNotification struct {
	Round int
	Phase int
}

// NotifySendMsg releases the first post-failure send of a process whose
// reported phase is Phase (Algorithm 4 lines 21-23).
type NotifySendMsg struct {
	Round int
	Phase int
}

// NotifySendLog releases the re-send of logged messages with phase at most
// Phase (Algorithm 4 lines 17-20, Algorithm 3 lines 22-24).
type NotifySendLog struct {
	Round int
	Phase int
}

// GCAck implements the garbage collection of §III-E: after a checkpoint,
// the receiver acknowledges the first message delivered from each process
// of another cluster. CkptDate prunes the peer's RPP entries about this
// process (they can never again denote orphans); DeliveredFromYou prunes
// the peer's payload log toward this process.
type GCAck struct {
	CkptDate         int64
	DeliveredFromYou int64
}

// Modeled wire sizes of the control messages.
const (
	wireRoundStart = 24
	wireRollback   = 28
	wireLastDate   = 16
	wireOrphanNote = 12
	wireNotify     = 12
	wireGCAck      = 20
)

func wireReport(r *Report) int {
	return 16 + 4*len(r.LogPhases) + 4*len(r.OrphanPhases)
}
