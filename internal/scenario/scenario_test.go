package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"safeland/internal/urban"
)

// tinySpec returns a cheap-to-generate spec; bump keeps specs distinct.
func tinySpec(bump int64) Spec {
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 64, 64
	return Spec{Cfg: cfg, Cond: urban.DefaultConditions(), Seed: 1000 + bump}
}

func TestSpecKeyDeterministicAndSensitive(t *testing.T) {
	base := tinySpec(0)
	if got, again := base.Key(), base.Key(); got != again {
		t.Fatalf("key not deterministic: %s vs %s", got, again)
	}
	if len(base.Key()) != 64 {
		t.Fatalf("key is not a sha256 hex digest: %q", base.Key())
	}

	// Every generation input must reach the content address.
	mutants := map[string]Spec{}
	m := base
	m.Seed++
	mutants["seed"] = m
	m = base
	m.Cfg.W = 66
	mutants["cfg width"] = m
	m = base
	m.Cfg.MovingCarsPer100M *= 2
	mutants["traffic density"] = m
	m = base
	m.Cfg.ParkProb += 0.1
	mutants["park probability"] = m
	m = base
	m.Cond.Lighting = urban.Sunset
	mutants["lighting"] = m
	m = base
	m.Cond.TimeOfDay = 20.5
	mutants["time of day"] = m
	m = base
	m.Cond.AltitudeM = 170
	mutants["altitude"] = m
	seen := map[string]string{base.Key(): "base"}
	for name, sp := range mutants {
		k := sp.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestSpecKeyCoversEveryGenerationInput is the drift guard for the
// content address: Spec.Key hashes an explicit field list, so a new field
// on urban.Config or urban.Conditions that Key doesn't fold in would
// silently collide cache entries (and serve the wrong scene from the disk
// layer across processes). This fails the moment either struct grows —
// extend Key, bump keyVersion, then update the counts here.
func TestSpecKeyCoversEveryGenerationInput(t *testing.T) {
	if n := reflect.TypeOf(urban.Config{}).NumField(); n != 14 {
		t.Fatalf("urban.Config has %d fields but Spec.Key hashes 14 — extend Key() and bump keyVersion", n)
	}
	if n := reflect.TypeOf(urban.Conditions{}).NumField(); n != 6 {
		t.Fatalf("urban.Conditions has %d fields but Spec.Key hashes 6 — extend Key() and bump keyVersion", n)
	}
}

func TestCorpusSceneMatchesDirectGenerate(t *testing.T) {
	sp := tinySpec(1)
	got := NewCorpus().Scene(sp)
	want := urban.Generate(sp.Cfg, sp.Cond, sp.Seed)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("corpus scene diverges from a direct urban.Generate")
	}
}

func TestCorpusCacheHitDeterminism(t *testing.T) {
	c := NewCorpus()
	sp := tinySpec(2)
	first := c.Scene(sp)
	second := c.Scene(sp)
	if first != second {
		t.Fatal("repeated lookup did not return the cached scene pointer")
	}
	st := c.Stats()
	if st.Generated != 1 || st.Hits != 1 || st.Resident != 1 {
		t.Fatalf("stats after two lookups = %+v, want 1 generated / 1 hit / 1 resident", st)
	}

	other := c.Scene(tinySpec(3))
	if other == first {
		t.Fatal("distinct specs shared a scene")
	}
	if st := c.Stats(); st.Generated != 2 {
		t.Fatalf("generated = %d after two distinct specs, want 2", st.Generated)
	}
}

func TestCorpusSingleflight(t *testing.T) {
	c := NewCorpus()
	sp := tinySpec(4)
	const callers = 8
	scenes := make([]*urban.Scene, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			scenes[i] = c.Scene(sp)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if scenes[i] != scenes[0] {
			t.Fatal("concurrent callers observed different scene instances")
		}
	}
	if st := c.Stats(); st.Generated != 1 {
		t.Fatalf("%d concurrent requests generated %d times, want 1", callers, st.Generated)
	}
}

// TestCorpusPanickingGenerationStaysRetryable is the singleflight-poisoning
// regression pin: a first lookup whose generation panics must propagate the
// panic AND leave the slot retryable, so a later lookup of the same key
// generates the scene instead of being served a nil scene counted as a
// cache hit (the sync.Once slot marked itself done mid-panic).
func TestCorpusPanickingGenerationStaysRetryable(t *testing.T) {
	calls := 0
	c := NewCorpus()
	c.generate = func(sp Spec) *urban.Scene {
		calls++
		if calls == 1 {
			panic("scenario test: injected generation failure")
		}
		return sp.Generate()
	}

	sp := tinySpec(40)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("first lookup did not propagate the generation panic")
			}
		}()
		c.Scene(sp)
	}()
	if st := c.Stats(); st.Generated != 0 || st.Hits != 0 || st.Resident != 0 {
		t.Fatalf("stats after failed generation = %+v, want all zero", st)
	}

	got := c.Scene(sp)
	if got == nil {
		t.Fatal("retry after failed generation returned a nil scene")
	}
	if want := urban.Generate(sp.Cfg, sp.Cond, sp.Seed); !reflect.DeepEqual(got, want) {
		t.Fatal("retried scene diverges from a direct urban.Generate")
	}
	if calls != 2 {
		t.Fatalf("generator ran %d times, want 2 (failed attempt + retry)", calls)
	}
	st := c.Stats()
	if st.Generated != 1 || st.Hits != 0 || st.Resident != 1 {
		t.Fatalf("stats after retry = %+v, want 1 generated / 0 hits / 1 resident", st)
	}
	if again := c.Scene(sp); again != got {
		t.Fatal("third lookup did not serve the cached retried scene")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hits after cached lookup = %d, want 1", st.Hits)
	}
}

// TestCorpusNilGenerationPanics pins the other poisoning shape: a generator
// that returns nil must fail loudly instead of caching nil.
func TestCorpusNilGenerationPanics(t *testing.T) {
	c := NewCorpus()
	c.generate = func(Spec) *urban.Scene { return nil }
	defer func() {
		if recover() == nil {
			t.Fatal("nil generation did not panic")
		}
		if st := c.Stats(); st.Resident != 0 {
			t.Fatalf("nil generation left %d resident scenes", st.Resident)
		}
	}()
	c.Scene(tinySpec(41))
}

func TestDiskCorpusRoundtrip(t *testing.T) {
	dir := t.TempDir()
	sp := tinySpec(5)

	writer := NewDiskCorpus(dir)
	want := writer.Scene(sp)
	if st := writer.Stats(); st.Generated != 1 || st.DiskHits != 0 {
		t.Fatalf("writer stats = %+v, want 1 generated / 0 disk hits", st)
	}

	// A fresh corpus over the same directory loads instead of regenerating.
	reader := NewDiskCorpus(dir)
	got := reader.Scene(sp)
	if st := reader.Stats(); st.Generated != 0 || st.DiskHits != 1 {
		t.Fatalf("reader stats = %+v, want 0 generated / 1 disk hit", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk roundtrip altered the scene")
	}

	// A different spec misses the disk layer and generates.
	reader.Scene(tinySpec(6))
	if st := reader.Stats(); st.Generated != 1 {
		t.Fatalf("distinct spec should generate, stats = %+v", st)
	}
}

// TestCorpusLookupsCounted pins that every lookup is counted exactly once,
// as a generation, a memory hit or a disk hit — the identity E11's dedup
// check reads off the counters.
func TestCorpusLookupsCounted(t *testing.T) {
	if got := (Stats{Generated: 27, Hits: 216, DiskHits: 3, Resident: 27}).Lookups(); got != 27+216+3 {
		t.Errorf("lookups = %d, want %d", got, 27+216+3)
	}
	dir := t.TempDir()
	NewDiskCorpus(dir).Scene(tinySpec(5))
	c := NewDiskCorpus(dir)
	c.Scene(tinySpec(5)) // disk hit
	c.Scene(tinySpec(5)) // memory hit
	c.Scene(tinySpec(6)) // generation
	if st := c.Stats(); st.Generated != 1 || st.Hits != 1 || st.DiskHits != 1 || st.Lookups() != 3 {
		t.Errorf("stats = %+v, lookups %d; want one of each over 3 lookups", st, st.Lookups())
	}
}

// TestDiskCorpusCorruptEntryRegenerates pins the robustness contract of
// the disk layer: a truncated or garbled cache file reads as a miss, the
// scene is regenerated bit-identically, and the fresh store overwrites the
// bad entry so the next corpus heals back to a disk hit.
func TestDiskCorpusCorruptEntryRegenerates(t *testing.T) {
	dir := t.TempDir()
	sp := tinySpec(7)
	want := NewDiskCorpus(dir).Scene(sp)

	files, err := filepath.Glob(filepath.Join(dir, "*.scene"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one cached scene file, got %v (%v)", files, err)
	}
	for name, corrupt := range map[string]func() error{
		"truncated": func() error {
			data, err := os.ReadFile(files[0])
			if err != nil {
				return err
			}
			return os.WriteFile(files[0], data[:len(data)/2], 0o644)
		},
		"garbled": func() error {
			return os.WriteFile(files[0], []byte("not a gob stream"), 0o644)
		},
	} {
		if err := corrupt(); err != nil {
			t.Fatalf("%s: corrupting entry: %v", name, err)
		}
		c := NewDiskCorpus(dir)
		got := c.Scene(sp)
		if st := c.Stats(); st.Generated != 1 || st.DiskHits != 0 {
			t.Fatalf("%s: stats = %+v, want the corrupt entry to read as a miss", name, st)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: regenerated scene differs from the original", name)
		}
		// The regeneration overwrote the bad file: a fresh corpus hits disk.
		healed := NewDiskCorpus(dir)
		if healed.Scene(sp); healed.Stats().DiskHits != 1 {
			t.Fatalf("%s: corrupt entry was not overwritten by the regeneration", name)
		}
	}
}

func TestAxesEnumerateDeterministicAndDeduplicated(t *testing.T) {
	a := DefaultAxes()
	first, err := a.Enumerate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	second, err := a.Enumerate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("enumeration is not deterministic")
	}
	wantLen := a.Scenarios()
	if len(first) != wantLen {
		t.Fatalf("enumerated %d scenarios, want %d", len(first), wantLen)
	}

	names := map[string]bool{}
	keys := map[string]bool{}
	for _, sc := range first {
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		keys[sc.Spec.Key()] = true
	}
	// Wind and failure variants do not change the scene recipe, so the
	// corpus collapses the grid to layout × density × hour distinct scenes
	// — the dedup the shared cache exists for.
	if len(keys) != a.DistinctScenes() {
		t.Fatalf("grid resolves to %d distinct scenes, want %d", len(keys), a.DistinctScenes())
	}

	// Seeds are content-derived: shrinking the grid must not reshuffle the
	// surviving combinations' scenes.
	sub := a
	sub.Winds = a.Winds[:1]
	sub.Hours = a.Hours[:1]
	subScens, err := sub.Enumerate(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	subSeeds := map[string]int64{}
	for _, sc := range subScens {
		subSeeds[sc.Name] = sc.Spec.Seed
	}
	for _, sc := range first {
		if seed, ok := subSeeds[sc.Name]; ok && seed != sc.Spec.Seed {
			t.Fatalf("scenario %q changed seed when the grid shrank", sc.Name)
		}
	}

	// A different base seed moves every scene.
	reseeded, err := a.Enumerate(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range reseeded {
		if sc.Spec.Seed == first[i].Spec.Seed {
			t.Fatalf("scenario %q kept its seed across base seeds", sc.Name)
		}
	}
}

func FuzzSpecKey(f *testing.F) {
	f.Add(int64(1), 64, 64, 120.0, 14.0, 0.0)
	f.Add(int64(2021), 192, 192, 170.0, 20.5, 0.3)
	f.Fuzz(func(t *testing.T, seed int64, w, h int, alt, hour, fog float64) {
		cfg := urban.DefaultConfig()
		cfg.W, cfg.H = w, h
		cond := urban.DefaultConditions()
		cond.AltitudeM = alt
		cond.TimeOfDay = hour
		cond.FogDensity = fog
		sp := Spec{Cfg: cfg, Cond: cond, Seed: seed}
		key := sp.Key()
		if len(key) != 64 {
			t.Fatalf("key length %d", len(key))
		}
		if key != sp.Key() {
			t.Fatal("key unstable")
		}
		bumped := sp
		bumped.Seed++
		if bumped.Key() == key {
			t.Fatal("seed change did not move the key")
		}
	})
}
