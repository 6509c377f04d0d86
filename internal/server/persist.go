package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"scatteradd/internal/exp"
)

// The persisted result-cache index survives daemon restarts: graceful drain
// writes every cached table to <dir>/cache-index.ndjson, and the next start
// warms the LRU from it, so a redeploy does not stampede the simulator with
// recomputation of its hot set.
//
// The format is NDJSON — a version header line, then one independent JSON
// entry per line — precisely so corruption is entry-granular: a torn or
// bit-rotted line is skipped (that key simply recomputes on next request)
// while every other entry loads. The whole file commits through
// exp.WriteFileAtomic, the same fsync-then-rename helper figure checkpoints
// use, so a crash mid-save leaves the old index or none, never a torn one.
// Like checkpoints, the index is an accelerator, not a source of truth: every
// load failure means "recompute", never an error.

// indexFileName is the index's name under Config.CacheDir.
const indexFileName = "cache-index.ndjson"

// indexVersion is bumped when the entry schema or the fingerprint key format
// changes incompatibly; a mismatched header discards the whole file.
const indexVersion = 1

// indexHeader is the first line of the index.
type indexHeader struct {
	V int `json:"v"`
}

// indexEntry is one cached table. Key is Request.CacheKey — the figure name
// plus the canonical options fingerprint, both stable across restarts.
type indexEntry struct {
	Key   string    `json:"key"`
	Table exp.Table `json:"table"`
}

// saveIndex persists the cache's current contents (oldest-first, so a reload
// reproduces the LRU order). It reports the entry count for the drain log.
func (c *resultCache) saveIndex(path string) (int, error) {
	entries := c.dump()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(indexHeader{V: indexVersion}); err != nil {
		return 0, err
	}
	for _, e := range entries {
		if err := enc.Encode(indexEntry{Key: e.key, Table: e.table}); err != nil {
			return 0, err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	if err := exp.WriteFileAtomic(path, buf.Bytes()); err != nil {
		return 0, err
	}
	return len(entries), nil
}

// loadIndex warms the cache from a persisted index, skipping corrupt lines
// entry by entry: torn JSON, an empty key, or a table that does not render
// (exp.Table.Validate). It reports how many entries loaded and how many were
// skipped; a missing file or a version mismatch is (0, 0) — start cold.
func (c *resultCache) loadIndex(path string) (loaded, skipped int) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0
	}
	lines := bytes.Split(data, []byte("\n"))
	if len(lines) == 0 {
		return 0, 0
	}
	var hdr indexHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.V != indexVersion {
		return 0, 0
	}
	var entries []cacheEntry
	for _, line := range lines[1:] {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e indexEntry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || e.Table.Validate() != nil {
			skipped++
			continue
		}
		entries = append(entries, cacheEntry{key: e.Key, table: e.Table})
	}
	c.seed(entries)
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "server: cache index %s: skipped %d corrupt entries (they will recompute on demand)\n", path, skipped)
	}
	return len(entries), skipped
}
