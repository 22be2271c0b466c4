package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hydee/internal/vtime"
)

// FileStore persists snapshots in a directory, one EncodeSnapshot blob
// per (rank, sequence), over one shared link like MemStore. It
// demonstrates that snapshots survive the process — what the paper means
// by "reliable storage" for checkpoints — and is used by tests that
// restart from real files. A file that does not decode to the snapshot
// its name promises (truncated, damaged, or of another format) is a
// missing checkpoint: Load reports false.
type FileStore struct {
	dir string

	mu   sync.Mutex
	link link
}

// NewFileStore creates (if needed) dir and returns a store over it.
func NewFileStore(dir string, writeBPS, readBPS float64) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &FileStore{dir: dir, link: link{writeBPS: writeBPS, readBPS: readBPS}}, nil
}

func (st *FileStore) path(rank, seq int) string {
	return filepath.Join(st.dir, fmt.Sprintf("ckpt-%d-%d.hysn", rank, seq))
}

// Save implements Store.
func (st *FileStore) Save(s *Snapshot, at vtime.Time) (vtime.Time, error) {
	blob, err := EncodeSnapshot(s)
	if err != nil {
		return at, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := os.WriteFile(st.path(s.Rank, s.Seq), blob, 0o644); err != nil {
		return at, fmt.Errorf("checkpoint: %w", err)
	}
	// Prune old generations like MemStore.
	for seq := s.Seq - historyKeep; seq > 0; seq-- {
		if os.Remove(st.path(s.Rank, seq)) != nil {
			break
		}
	}
	return st.link.write(s.CostBytes(), at), nil
}

// Load implements Store.
func (st *FileStore) Load(rank, seq int, at vtime.Time) (*Snapshot, vtime.Time, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b, err := os.ReadFile(st.path(rank, seq))
	if err != nil {
		return nil, at, false
	}
	s, err := DecodeSnapshot(b)
	if err != nil || s.Rank != rank || s.Seq != seq {
		return nil, at, false
	}
	return s, st.link.read(s.CostBytes(), at), true
}

// Stats implements Store.
func (st *FileStore) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.link.stats
}
