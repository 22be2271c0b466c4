package mpi_test

// A checkpoint's protocol state reaches the store two ways: an engine
// leaves a value to Snapshot.DeferProtState, which the save encodes off
// the process's task, or it sets ProtState itself. Either way the stored
// bytes and the checkpoint's cost are those of the encoded state.

import (
	"bytes"
	"strings"
	"testing"

	"hydee/internal/checkpoint"
	"hydee/internal/mpi"
	"hydee/internal/rollback"
	"hydee/internal/rollback/coord"
)

// protStateProtocol is coordinated checkpointing whose engines build
// their checkpoint's protocol state with set instead.
type protStateProtocol struct {
	rollback.Protocol
	set func(*checkpoint.Snapshot)
}

func (p protStateProtocol) NewEngine(rank int, px rollback.Proc) rollback.Engine {
	return protStateEngine{p.Protocol.NewEngine(rank, px), p.set}
}

type protStateEngine struct {
	rollback.Engine
	set func(*checkpoint.Snapshot)
}

func (e protStateEngine) OnCheckpoint(s *checkpoint.Snapshot) { e.set(s) }

// deferredState is a protocol state large enough that its length cannot
// hide in the rest of a checkpoint's cost.
type deferredState struct {
	Date int64
	Log  []byte
}

// checkpointOnce runs np = 2 ranks of prot that exchange nothing and
// checkpoint once with a small image and no modeled size, so each
// checkpoint's cost is its encoded size. It returns the run and the
// store.
func checkpointOnce(t *testing.T, prot rollback.Protocol) (*mpi.Result, *checkpoint.MemStore) {
	t.Helper()
	store := checkpoint.NewMemStore(0, 0)
	res, err := mpi.Run(mpi.Config{NP: 2, Protocol: prot, Store: store, CheckpointEvery: 1}, func(c *mpi.Comm) error {
		if _, err := c.Restore(&waveState{Acc: 7}); err != nil {
			return err
		}
		return c.Checkpoint()
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, store
}

// encodedState is what a save stores for v: its BorrowState encoding,
// copied out before the buffer goes back.
func encodedState(t *testing.T, v any) []byte {
	t.Helper()
	b, release, err := checkpoint.BorrowState(v)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	return bytes.Clone(b)
}

// TestDeferredProtStateCounted holds a deferred protocol state to the
// checkpoint's cost: with no modeled size the cost is the encoded size,
// so Metrics.CkptBytes must include the state the save encodes, which it
// misses if the encode runs after the cost is taken.
func TestDeferredProtStateCounted(t *testing.T) {
	st := deferredState{Date: 3, Log: bytes.Repeat([]byte{5}, 4096)}
	res, store := checkpointOnce(t, protStateProtocol{coord.New(), func(s *checkpoint.Snapshot) { s.DeferProtState(st) }})
	want, img := encodedState(t, st), encodedState(t, &waveState{Acc: 7})
	for r := 0; r < 2; r++ {
		snap, _, ok := store.Load(r, 1, 0)
		if !ok {
			t.Fatalf("rank %d: no checkpoint stored", r)
		}
		if !bytes.Equal(snap.ProtState, want) {
			t.Errorf("rank %d: stored protocol state %d bytes, want the %d of its encoding", r, len(snap.ProtState), len(want))
		}
		if got, cost := res.PerRank[r].CkptBytes, int64(len(want)+len(img)); got != cost {
			t.Errorf("rank %d: CkptBytes %d, want %d (protocol state %d + image %d)", r, got, cost, len(want), len(img))
		}
	}
}

// TestDirectProtStateUntouched holds an engine that sets ProtState itself
// to the behaviour it had before states could be deferred: the save
// stores those bytes as they are and counts them.
func TestDirectProtStateUntouched(t *testing.T) {
	direct := []byte("protocol state set by the engine")
	res, store := checkpointOnce(t, protStateProtocol{coord.New(), func(s *checkpoint.Snapshot) { s.ProtState = direct }})
	img := encodedState(t, &waveState{Acc: 7})
	for r := 0; r < 2; r++ {
		snap, _, ok := store.Load(r, 1, 0)
		if !ok {
			t.Fatalf("rank %d: no checkpoint stored", r)
		}
		if !bytes.Equal(snap.ProtState, direct) {
			t.Errorf("rank %d: stored protocol state %q, want %q", r, snap.ProtState, direct)
		}
		if got, cost := res.PerRank[r].CkptBytes, int64(len(direct)+len(img)); got != cost {
			t.Errorf("rank %d: CkptBytes %d, want %d", r, got, cost)
		}
	}
}

// TestDeferredProtStateEncodeError holds a protocol state gob refuses to
// a failed run, not a panic: the save reports the encode's error and
// gives back nothing it did not borrow.
func TestDeferredProtStateEncodeError(t *testing.T) {
	prot := protStateProtocol{coord.New(), func(s *checkpoint.Snapshot) { s.DeferProtState(make(chan int)) }}
	_, err := mpi.Run(mpi.Config{NP: 2, Protocol: prot, CheckpointEvery: 1}, func(c *mpi.Comm) error {
		if _, err := c.Restore(&waveState{Acc: 7}); err != nil {
			return err
		}
		return c.Checkpoint()
	})
	if err == nil || !strings.Contains(err.Error(), "encode state") {
		t.Fatalf("run error %v, want the protocol state's encode error", err)
	}
}
