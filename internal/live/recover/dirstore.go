package recover

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// DirStore is an on-disk Store: one file per node snapshot under a
// directory, named ep<episode>-node<k>.ckpt.
// Writes go through a temp file and rename, so a crash mid-write never
// leaves a truncated snapshot behind a valid name.
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (st *DirStore) nodePath(episode int64, node int) string {
	return filepath.Join(st.dir, fmt.Sprintf("ep%d-node%d.ckpt", episode, node))
}

// write stores b under path through a temp file of its own: a killed
// incarnation still finishing and its replacement may store the same
// snapshot at once, and a shared temp name would let one rename the
// other's file away.
func (st *DirStore) write(path string, b []byte) error {
	f, err := os.CreateTemp(st.dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("recover: %w", err)
	}
	return nil
}

// PutNode implements Store.
func (st *DirStore) PutNode(s *NodeSnapshot) error {
	return st.write(st.nodePath(s.Episode, int(s.Node)), EncodeNode(s))
}

// GetNode implements Store.
func (st *DirStore) GetNode(episode int64, node int) (*NodeSnapshot, error) {
	b, err := os.ReadFile(st.nodePath(episode, node))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: episode %d node %d", ErrNotFound, episode, node)
	}
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	return DecodeNode(b)
}

// Prune implements Store.
func (st *DirStore) Prune(keep int) error {
	old := dropList(st.episodes(), keep)
	if len(old) == 0 {
		return nil
	}
	drop := make(map[int64]bool)
	for _, ep := range old {
		drop[ep] = true
	}
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	for _, e := range ents {
		if ep, ok := episodeOf(e.Name()); ok && drop[ep] {
			// A concurrent Prune may have removed it since the listing.
			if err := os.Remove(filepath.Join(st.dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("recover: %w", err)
			}
		}
	}
	return nil
}

// episodes lists the distinct episodes present in the directory.
func (st *DirStore) episodes() []int64 {
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	seen := make(map[int64]bool)
	for _, e := range ents {
		if ep, ok := episodeOf(e.Name()); ok {
			seen[ep] = true
		}
	}
	out := make([]int64, 0, len(seen))
	for ep := range seen {
		out = append(out, ep)
	}
	return out
}

// episodeOf parses the episode out of a snapshot file name.
func episodeOf(name string) (int64, bool) {
	if !strings.HasPrefix(name, "ep") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	rest := name[2:]
	i := strings.IndexByte(rest, '-')
	if i < 0 {
		return 0, false
	}
	ep, err := strconv.ParseInt(rest[:i], 10, 64)
	if err != nil {
		return 0, false
	}
	return ep, true
}
