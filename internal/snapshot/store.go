package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// ErrNotFound reports a key with no stored snapshot.
var ErrNotFound = errors.New("snapshot: not found")

// Store persists encoded snapshots by job key. Implementations must make
// Put atomic with respect to Get: a reader sees either the previous payload
// or the new one, never a torn write. Keys are arbitrary strings (canonical
// job tuples); payloads are opaque to the store.
type Store interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
}

// MemStore is an in-memory Store for tests and single-process use.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

func (s *MemStore) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[key] = cp
	return nil
}

func (s *MemStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.m[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	return nil
}

// DirStore keeps one file per key under a directory. Filenames are the
// SHA-256 of the key (keys contain characters hostile to filesystems).
// Writes go through a temp file + rename, making Put atomic — several
// stserve nodes can safely share one checkpoint directory, which is what
// lets a cluster resume a dead node's jobs.
type DirStore struct {
	dir string
}

const snapExt = ".stsnap"

// NewDirStore creates the directory if needed and returns a store over it.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: dir store: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+snapExt)
}

func (s *DirStore) Put(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: dir store put: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("snapshot: dir store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("snapshot: dir store put: %w", err)
	}
	if err := os.Rename(name, s.path(key)); err != nil {
		os.Remove(name)
		return fmt.Errorf("snapshot: dir store put: %w", err)
	}
	return nil
}

func (s *DirStore) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: dir store get: %w", err)
	}
	return data, nil
}

func (s *DirStore) Delete(key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("snapshot: dir store delete: %w", err)
	}
	return nil
}
