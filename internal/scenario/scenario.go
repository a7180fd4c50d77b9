// Package scenario is the shared, content-addressed scene corpus behind
// the experiment fleets.
//
// The paper's certification argument only holds if the EL function is
// validated "under the conditions of the operation" (Table III): many
// urban layouts, densities, winds, failure profiles and times of day. That
// multiplies scene generation across every experiment Env — and before
// this package, each Env regenerated identical scenes from scratch. The
// corpus deduplicates that work: a Spec is a fully-determined scene recipe
// (generator config × capture conditions × seed), its Key is a
// content address over every generation input, and a Corpus memoizes
// generated scenes by key, in memory and optionally on disk, with
// singleflight semantics so concurrent requests for the same scene pay for
// one generation.
//
// A fleet resolves each spec's scene through the corpus on the goroutine
// that then serves it with Engine.Select, so scene generation overlaps
// perception and the singleflight still builds each scene once; BuildRequest
// shapes the request. Because urban.Generate is deterministic in the Spec,
// the fleet's responses are byte-identical to a SelectBatch over the
// materialized scenes, whatever the worker count.
//
// The Axes/Scenario layer enumerates the operating-condition grid (urban
// layout × density × wind × failure profile × time-of-day) with
// deterministic, content-derived per-scenario seeds, giving future
// scenario-diversity work one place to grow the validation envelope.
package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"safeland/internal/urban"
)

// Spec is one fully-determined scene recipe: everything urban.Generate
// consumes. Two Specs with equal fields name the same scene, bit for bit.
type Spec struct {
	Cfg  urban.Config
	Cond urban.Conditions
	Seed int64
}

// keyVersion is baked into every content address so a change to the key
// derivation (or to the meaning of a Spec field) invalidates stale disk
// cache entries instead of serving scenes generated under old semantics.
// urban.GeneratorVersion is folded in alongside it, so changes to the
// generation algorithm itself invalidate caches the same way.
const keyVersion = 1

// Key returns the spec's content address: a SHA-256 over the canonical
// binary encoding of every generation input. Equal specs share a key;
// any field change produces a new one.
func (s Spec) Key() string {
	h := sha256.New()
	buf := make([]byte, 8)
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(keyVersion)
	u64(urban.GeneratorVersion)
	u64(uint64(s.Cfg.W))
	u64(uint64(s.Cfg.H))
	f64(s.Cfg.RoadSpacingMin)
	f64(s.Cfg.RoadSpacingMax)
	f64(s.Cfg.RoadWidthMin)
	f64(s.Cfg.RoadWidthMax)
	f64(s.Cfg.ParkProb)
	f64(s.Cfg.PlazaProb)
	f64(s.Cfg.ParkingProb)
	f64(s.Cfg.MovingCarsPer100M)
	f64(s.Cfg.ParkedCarsPer100M)
	u64(uint64(s.Cfg.HumansPerBlockMax))
	f64(s.Cfg.PondProb)
	f64(s.Cfg.PowerLineProb)
	u64(uint64(s.Cond.Lighting))
	u64(uint64(s.Cond.Season))
	f64(s.Cond.FogDensity)
	f64(s.Cond.SensorNoise)
	f64(s.Cond.AltitudeM)
	f64(s.Cond.TimeOfDay)
	u64(uint64(s.Seed))
	return hex.EncodeToString(h.Sum(nil))
}

// Generate builds the spec's scene directly, bypassing any cache. The same
// spec always produces the same scene.
func (s Spec) Generate() *urban.Scene {
	return urban.Generate(s.Cfg, s.Cond, s.Seed)
}

// Set builds n specs with consecutive seeds starting at baseSeed — the
// corpus-level mirror of urban.GenerateSet's seeding, so a fleet that used
// to materialize GenerateSet(cfg, cond, n, base) streams the identical
// scenes through the cache.
func Set(cfg urban.Config, cond urban.Conditions, n int, baseSeed int64) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{Cfg: cfg, Cond: cond, Seed: baseSeed + int64(i)}
	}
	return specs
}
