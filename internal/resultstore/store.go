package resultstore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultDirName is the conventional local cache directory (relative to
// the working directory) that `pcs cache` administers when no explicit
// -cache is given. It is listed in .gitignore: memoized results are
// derived data and never belong in commits.
const DefaultDirName = ".pcs-cache"

// Store keeps entries as files under a local directory, sharded by the
// first two hex digits of the key (root/ab/abcdef....json) so no single
// directory grows unboundedly on large campaigns. All methods are safe
// for concurrent use.
//
// Writes are write-to-temp-then-rename in the shard directory, so
// concurrent writers — multiple campaign workers, or several pcs
// processes sharing one cache — never expose partial values: rename is
// atomic on POSIX filesystems, and both writers of one key write the
// same deterministic bytes anyway.
type Store struct {
	root string

	// Scrape state: ScrapeSizeBytes walks the directory at most once
	// per scrapeTTL and serves scrapeBytes in between.
	scrapeMu    sync.Mutex
	scrapeLast  time.Time
	scrapeBytes int64
	scrapeTTL   time.Duration
}

// defaultScrapeTTL bounds how often ScrapeSizeBytes re-walks the
// directory. Prometheus-style scrapers typically poll every 10-60 s, so
// a 10 s floor means at most one walk per scrape interval.
const defaultScrapeTTL = 10 * time.Second

// Open creates (if needed) and opens the store rooted at dir — the
// `-cache DIR` form every pcs subcommand accepts.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: create cache dir: %w", err)
	}
	return &Store{root: dir, scrapeTTL: defaultScrapeTTL}, nil
}

// path maps a key to its sharded file path.
func (s *Store) path(key string) (string, error) {
	if len(key) < 3 || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("resultstore: malformed key %q", key)
	}
	return filepath.Join(s.root, key[:2], key+".json"), nil
}

// Get reads one entry, reporting whether the key exists. The runner
// treats errors as misses, so a flaky cache degrades to recomputation
// rather than failing campaigns.
func (s *Store) Get(key string) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("resultstore: read %s: %w", key, err)
	}
	return data, true, nil
}

// Put stores a computed result atomically, overwriting any previous
// value under key (which is how a stale, undecodable entry is
// repaired): temp file in the shard directory, then rename over the
// final name. The runner treats errors as best-effort (a failed Put
// never fails the job).
func (s *Store) Put(key string, data []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	shard := filepath.Dir(p)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("resultstore: create shard: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".put-*")
	if err != nil {
		return fmt.Errorf("resultstore: temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: commit %s: %w", key, err)
	}
	return nil
}

// entryInfo describes one stored entry.
type entryInfo struct {
	key   string
	bytes int64
	// modTime is when the entry was last written; GC evicts oldest
	// first.
	modTime time.Time
}

// entries walks the shard directories.
func (s *Store) entries() ([]entryInfo, error) {
	var out []entryInfo
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A shard vanishing mid-walk (concurrent GC) is not an error.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		name := d.Name()
		if d.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		out = append(out, entryInfo{
			key:     strings.TrimSuffix(name, ".json"),
			bytes:   info.Size(),
			modTime: info.ModTime(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: walk cache: %w", err)
	}
	return out, nil
}

// delete removes one entry (and opportunistically its shard directory
// once empty; failure to remove the now-empty shard is ignored).
// Deleting a missing key is not an error.
func (s *Store) delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("resultstore: delete %s: %w", key, err)
	}
	os.Remove(filepath.Dir(p))
	return nil
}

// Stats is a point-in-time snapshot of the store's footprint.
type Stats struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Stats walks the directory and returns exact entry/byte totals.
func (s *Store) Stats() (Stats, error) {
	infos, err := s.entries()
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Entries: len(infos)}
	for _, e := range infos {
		st.Bytes += e.bytes
	}
	return st, nil
}

// ScrapeSizeBytes returns the stored byte total for the server's
// resultstore_bytes gauge. The first call walks the directory; later
// calls re-walk at most once per TTL and serve the last walk's figure
// in between, so the gauge tracks external writers and cross-process GC
// without a directory walk on every scrape. Walk errors fall back to
// the last known value — a metrics scrape must never fail a campaign.
func (s *Store) ScrapeSizeBytes() int64 {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()
	if s.scrapeLast.IsZero() || time.Since(s.scrapeLast) >= s.scrapeTTL {
		s.scrapeLast = time.Now()
		if st, err := s.Stats(); err == nil {
			s.scrapeBytes = st.Bytes
		}
	}
	return s.scrapeBytes
}

// GCOptions bound a collection pass. Zero values mean "no bound on this
// axis"; GC with both zero is a no-op.
type GCOptions struct {
	// MaxBytes evicts oldest entries until the store fits.
	MaxBytes int64
	// MaxAge evicts entries older than this.
	MaxAge time.Duration
	// Now anchors MaxAge; zero means time.Now().
	Now time.Time
}

// GCResult summarises one collection pass.
type GCResult struct {
	Scanned        int   `json:"scanned"`
	Removed        int   `json:"removed"`
	RemovedBytes   int64 `json:"removed_bytes"`
	RemainingBytes int64 `json:"remaining_bytes"`
}

// GC evicts entries oldest-first until the store satisfies opts.
// Deleting a key another process already removed is not an error, so
// concurrent GC passes are safe (if wasteful).
func (s *Store) GC(opts GCOptions) (GCResult, error) {
	infos, err := s.entries()
	if err != nil {
		return GCResult{}, err
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].modTime.Before(infos[j].modTime) })
	var total int64
	for _, e := range infos {
		total += e.bytes
	}
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}
	res := GCResult{Scanned: len(infos), RemainingBytes: total}
	for _, e := range infos {
		tooOld := opts.MaxAge > 0 && now.Sub(e.modTime) > opts.MaxAge
		tooBig := opts.MaxBytes > 0 && res.RemainingBytes > opts.MaxBytes
		if !tooOld && !tooBig {
			if opts.MaxAge <= 0 {
				// Entries are age-sorted: once under the byte budget with
				// no age bound, nothing further can be evictable.
				break
			}
			continue
		}
		if err := s.delete(e.key); err != nil {
			return res, err
		}
		res.Removed++
		res.RemovedBytes += e.bytes
		res.RemainingBytes -= e.bytes
	}
	return res, nil
}
