package scenario

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"safeland/internal/urban"
)

// Corpus memoizes generated scenes by content address. All methods are safe
// for concurrent use; each distinct Spec is generated exactly once per
// process (singleflight), and callers asking for an in-flight scene block
// until the one generation finishes. Cached scenes are shared pointers and
// must be treated as immutable — the same contract every reader of a
// generated urban.Scene already follows.
type Corpus struct {
	// dir, when non-empty, adds a content-addressed on-disk layer: scenes
	// are gob-encoded under <dir>/<key>.scene and reloaded instead of
	// regenerated by later processes.
	dir string

	// generate builds the scene of a spec on a miss; nil runs
	// Spec.Generate. It belongs to the corpus, not the package, so a test
	// injecting a failing generator into its own corpus cannot reach the
	// generations another corpus still runs.
	generate func(Spec) *urban.Scene

	mu      sync.Mutex
	entries map[string]*corpusEntry

	generated atomic.Int64
	hits      atomic.Int64
	diskHits  atomic.Int64
}

// corpusEntry is one singleflight slot: requesters serialize on mu, the
// first to find done unset runs the generation, everyone after reads the
// cached scene. done is set only on success — a generation that panics
// unwinds with done still false, so the slot stays retryable instead of
// serving a poisoned nil scene forever (the sync.Once formulation marked
// the slot done even when the generator panicked).
type corpusEntry struct {
	mu sync.Mutex
	// done is atomic so Stats can count resident scenes without queueing
	// behind an in-flight generation; it is written under mu.
	done  atomic.Bool
	scene *urban.Scene
}

// NewCorpus returns an empty in-memory corpus.
func NewCorpus() *Corpus {
	return &Corpus{entries: make(map[string]*corpusEntry)}
}

// NewDiskCorpus returns a corpus backed by a content-addressed directory:
// in-memory misses fall through to <dir>/<key>.scene before regenerating,
// and fresh generations are persisted there (best-effort — a read-only or
// full disk degrades to in-memory caching, never to an error). The
// directory is created on demand.
func NewDiskCorpus(dir string) *Corpus {
	c := NewCorpus()
	c.dir = dir
	return c
}

// shared is the process-wide corpus behind Shared().
var shared = NewCorpus()

// Shared returns the process-wide corpus. Experiment Envs default to it so
// scene and dataset generation is shared across every Env in the process:
// a repeated run with the same configuration hits the cache instead of
// regenerating its scenes.
func Shared() *Corpus { return shared }

// Scene returns the spec's scene, generating (or loading from disk) on
// first use and serving the cached pointer afterwards. A failing generation
// propagates (the generator panics on invalid configurations) and leaves
// the singleflight slot retryable: the next lookup of the same key runs the
// generation again instead of being served a poisoned nil scene counted as
// a cache hit.
func (c *Corpus) Scene(spec Spec) *urban.Scene {
	key := spec.Key()
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &corpusEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	// Requesters of one key serialize here; a panic below unwinds through
	// the deferred unlock with done still false, so waiters (and later
	// lookups) retry the generation rather than read a poisoned slot.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		c.hits.Add(1)
		return e.scene
	}
	if s := c.loadDisk(key); s != nil {
		c.diskHits.Add(1)
		e.scene = s
		e.done.Store(true)
		return s
	}
	gen := c.generate
	if gen == nil {
		gen = Spec.Generate
	}
	s := gen(spec)
	if s == nil {
		panic(fmt.Sprintf("scenario: generator returned a nil scene for spec %s", key))
	}
	c.generated.Add(1)
	e.scene = s
	e.done.Store(true)
	c.storeDisk(key, s)
	return s
}

// Scenes resolves a spec list in order through the cache.
func (c *Corpus) Scenes(specs []Spec) []*urban.Scene {
	out := make([]*urban.Scene, len(specs))
	for i, sp := range specs {
		out[i] = c.Scene(sp)
	}
	return out
}

// Stats is a point-in-time snapshot of the corpus counters.
type Stats struct {
	// Generated counts scenes built by running the generator.
	Generated int64
	// Hits counts lookups served from the in-memory cache (the first
	// request for a key is not a hit, even when it loaded from disk).
	Hits int64
	// DiskHits counts first requests satisfied from the on-disk layer.
	DiskHits int64
	// Resident is the number of distinct scenes currently cached.
	Resident int
}

// Lookups returns the total scene lookups the counters cover: every lookup
// is exactly one of a generation, a memory hit, or a disk hit.
func (s Stats) Lookups() int64 { return s.Generated + s.Hits + s.DiskHits }

// Stats returns the corpus counters; Generated is the number the
// repeated-Env cache tests pin.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	// Only completed slots hold a scene: a slot whose generations so far all
	// failed (or are still in flight) is not resident.
	resident := 0
	for _, e := range c.entries {
		if e.done.Load() {
			resident++
		}
	}
	c.mu.Unlock()
	return Stats{
		Generated: c.generated.Load(),
		Hits:      c.hits.Load(),
		DiskHits:  c.diskHits.Load(),
		Resident:  resident,
	}
}

// diskScene is the on-disk encoding unit; a struct wrapper keeps room for
// future sidecar fields without another format break.
type diskScene struct {
	Scene *urban.Scene
}

func (c *Corpus) scenePath(key string) string {
	return filepath.Join(c.dir, key+".scene")
}

// loadDisk reads a cached scene; any failure (missing, truncated, stale
// format) reads as a miss and the scene is regenerated.
func (c *Corpus) loadDisk(key string) *urban.Scene {
	if c.dir == "" {
		return nil
	}
	f, err := os.Open(c.scenePath(key))
	if err != nil {
		return nil
	}
	defer f.Close()
	var ds diskScene
	if err := gob.NewDecoder(f).Decode(&ds); err != nil || ds.Scene == nil {
		return nil
	}
	return ds.Scene
}

// storeDisk persists a generated scene best-effort: the write goes to a
// temp file first, is synced, and is renamed into place, so concurrent
// processes never observe a torn entry and a crash right after the rename
// cannot leave a durable-looking file with unwritten pages (loadDisk would
// still survive that — a garbled entry decodes as a miss — but it would
// silently cost the cache hit).
func (c *Corpus) storeDisk(key string, s *urban.Scene) {
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return
	}
	if err := gob.NewEncoder(tmp).Encode(diskScene{Scene: s}); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.scenePath(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
