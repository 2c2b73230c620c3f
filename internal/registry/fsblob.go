package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// FSBlob is the filesystem BlobBackend: the object under key lives at
// <dir>/<key>, the key's slashes becoming subdirectories. Every Put goes
// through a temp file, an fsync and a rename, so a crash mid-write never
// leaves a torn object behind — at worst a stale one. Keys are relative
// slash-separated paths that never leave dir: Store builds them from
// validated digests and experiment ids, and the explanation cache's tier
// 2 from content digests and hex leaves.
type FSBlob struct {
	dir string
}

// OpenFSStore opens (creating if needed) a filesystem store rooted at
// dir: Store's layout over an FSBlob, so artifacts live under
// <dir>/artifacts/<digest>, the manifest at <dir>/manifest.json, and
// experiment matrices under <dir>/experiments/<id>.json. serve.Open
// lays the retrying chain over its Backend():
// NewStore(NewRetryBlob(st.Backend(), cfg)).
func OpenFSStore(dir string) (*Store, error) {
	for _, sub := range []string{"", "artifacts", "experiments"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("registry: open store: %w", err)
		}
	}
	return NewStore(&FSBlob{dir: dir}), nil
}

func (b *FSBlob) path(key string) string {
	return filepath.Join(b.dir, filepath.FromSlash(key))
}

// Put implements BlobBackend, creating the key's parent directories.
func (b *FSBlob) Put(key string, data []byte) error {
	p := b.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return writeAtomic(p, data)
}

// Get implements BlobBackend.
func (b *FSBlob) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(b.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrBlobNotFound, key)
	}
	return data, err
}

// Delete implements BlobBackend.
func (b *FSBlob) Delete(key string) error {
	if err := os.Remove(b.path(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// List implements BlobBackend: the keys of the regular files under
// prefix, without writeAtomic's in-flight temp files.
func (b *FSBlob) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(b.path(path.Dir(prefix)), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // nothing stored under prefix, or removed mid-walk
			}
			return err
		}
		if !d.Type().IsRegular() || strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		rel, err := filepath.Rel(b.dir, p)
		if err != nil {
			return err
		}
		if key := filepath.ToSlash(rel); strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Walk order is per-directory name order, not key order: "a/x" is
	// walked before "a-b", yet sorts after it.
	sort.Strings(keys)
	return keys, nil
}

// writeAtomic writes data to path via a temp file in the same directory
// and an atomic rename.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}
