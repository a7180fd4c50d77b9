package safeland_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"safeland"
	"safeland/internal/faults"
	"safeland/internal/imaging"
	"safeland/internal/scenario"
	"safeland/internal/urban"
)

// serveSys trains one small shared system for the fleet benchmarks; the
// external test package cannot reach the in-package quickSystem fixture.
var serveSys struct {
	sync.Once
	sys *safeland.System
}

func serveSystem() *safeland.System {
	serveSys.Do(func() {
		serveSys.sys = safeland.NewSystem(safeland.Options{
			Seed:        7,
			TrainScenes: 2,
			TrainSteps:  100,
			SceneSize:   96,
			MCSamples:   3,
		})
	})
	return serveSys.sys
}

// sessionFleetStreams builds the per-vehicle descent frame streams the
// fleet benchmarks fly: a probe pass keeps corpus scenes the model
// actually confirms on (deterministic: same model, same scenes, every
// run), then each vehicle gets a seeded descent over one of them.
func sessionFleetStreams(b *testing.B, vehicles, framesPerVehicle int) ([][]*imaging.Image, []float64) {
	b.Helper()
	sys := serveSystem()
	corpus := scenario.NewCorpus()
	cfg := urban.DefaultConfig()
	cfg.W, cfg.H = 96, 96
	const scenes = 8

	// A descent session stream models the continuous-descent loop, which
	// only starts once a zone is confirmed — so the fleet flies over scenes
	// the model actually confirms on.
	probe, err := safeland.NewEngine(safeland.WithSystem(sys), safeland.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	var bases []*urban.Scene
	for _, sp := range scenario.Set(cfg, urban.DefaultConditions(), 32, 4200) {
		if len(bases) == scenes {
			break
		}
		s := corpus.Scene(sp)
		resp := probe.Select(context.Background(), safeland.SelectRequest{Scene: s})
		if resp.Err != nil {
			b.Fatal(resp.Err)
		}
		if resp.Result.Confirmed {
			bases = append(bases, s)
		}
	}
	probe.Close()
	if len(bases) == 0 {
		b.Fatal("no probe scene confirmed a zone; the fleet would never exercise reuse")
	}

	streams := make([][]*imaging.Image, vehicles)
	mpps := make([]float64, vehicles)
	for v := range streams {
		base := bases[v%len(bases)]
		streams[v] = scenario.DescentFrames(base.Image, scenario.Descent{
			Frames: framesPerVehicle,
			Seed:   int64(1000 + v),
		})
		mpps[v] = base.MPP
	}
	return streams, mpps
}

// benchmarkSessionFleet serves a synthetic fleet of staggered descents —
// `vehicles` vehicles sharded over a two-engine router, each advancing a
// deterministic per-vehicle frame stream over a corpus scene, frames
// interleaved round-robin across the fleet so every session's prior
// survives arbitrary interleaving. The reuse arm serves each vehicle
// through a session, which re-verifies the previous zone; the full arm
// sends every frame to the vehicle's home shard as an independent Select.
// The headline metric is ns/frame; make bench lands both arms in
// BENCH_serve.json.
func benchmarkSessionFleet(b *testing.B, vehicles int) {
	sys := serveSystem()
	const framesPerVehicle = 3
	streams, mpps := sessionFleetStreams(b, vehicles, framesPerVehicle)

	for _, arm := range []struct {
		name  string
		reuse bool
	}{{"reuse", true}, {"full", false}} {
		b.Run(arm.name, func(b *testing.B) {
			ctx := context.Background()
			frames := 0
			reused := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				newShard := func() *safeland.Engine {
					e, err := safeland.NewEngine(
						safeland.WithSystem(sys),
						safeland.WithWorkers(1),
						safeland.WithMaxSessions(vehicles),
					)
					if err != nil {
						b.Fatal(err)
					}
					return e
				}
				shard0, shard1 := newShard(), newShard()
				router, err := safeland.NewRouter(shard0, shard1)
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]string, vehicles)
				var sessions []*safeland.Session
				for v := range ids {
					ids[v] = fmt.Sprintf("uav-%04d", v)
					if arm.reuse {
						sess, err := router.NewSession(ids[v])
						if err != nil {
							b.Fatal(err)
						}
						sessions = append(sessions, sess)
					}
				}
				b.StartTimer()
				for k := 0; k < framesPerVehicle; k++ {
					for v, id := range ids {
						req := safeland.SelectRequest{Image: streams[v][k], MPP: mpps[v]}
						var err error
						if arm.reuse {
							resp := sessions[v].Advance(ctx, req)
							err = resp.Err
							if resp.Reused {
								reused++
							}
						} else {
							err = router.Engine(id).Select(ctx, req).Err
						}
						if err != nil {
							b.Fatalf("vehicle %d frame %d: %v", v, k, err)
						}
						frames++
					}
				}
				b.StopTimer()
				for _, sess := range sessions {
					sess.Close()
				}
				router.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
			b.ReportMetric(100*float64(reused)/float64(frames), "reused-%")
		})
	}
}

func BenchmarkSessionFleet100(b *testing.B)  { benchmarkSessionFleet(b, 100) }
func BenchmarkSessionFleet1000(b *testing.B) { benchmarkSessionFleet(b, 1000) }

// BenchmarkSessionFleetChaos flies the 100-vehicle fleet of the reuse arm
// under a deterministic fault injector — transient selector errors at the
// vehicle points, shard0 blacked out for frame 1 —
// with degraded-mode serving on, measuring what the fault-tolerance
// machinery costs per frame next to the clean arms in BENCH_serve.json.
// The serving contract is enforced, not just measured: a hard-failed
// frame fails the benchmark, and every frame must resolve as served,
// retried, or explicitly Degraded.
func BenchmarkSessionFleetChaos(b *testing.B) {
	sys := serveSystem()
	const vehicles = 100
	const framesPerVehicle = 3
	streams, mpps := sessionFleetStreams(b, vehicles, framesPerVehicle)
	inj := faults.NewInjector(99, faults.Rates{
		SelectorError: 0.05,
	}).ScheduleFault(faults.ShardBlackout, "shard0", 1)

	ctx := context.Background()
	var frames, degraded, retried int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		newShard := func(name string) *safeland.Engine {
			e, err := safeland.NewEngine(
				safeland.WithSystem(sys),
				safeland.WithWorkers(1),
				safeland.WithMaxSessions(vehicles),
				safeland.WithShardName(name),
				safeland.WithFaultInjector(inj),
				safeland.WithDegradedFallback(true),
				safeland.WithRetryBackoff(time.Microsecond, 10*time.Microsecond),
			)
			if err != nil {
				b.Fatal(err)
			}
			return e
		}
		shard0, shard1 := newShard("shard0"), newShard("shard1")
		router, err := safeland.NewRouter(shard0, shard1)
		if err != nil {
			b.Fatal(err)
		}
		sessions := make([]*safeland.Session, vehicles)
		for v := range sessions {
			sessions[v], err = router.NewSession(fmt.Sprintf("uav-%04d", v))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for k := 0; k < framesPerVehicle; k++ {
			for v, sess := range sessions {
				resp := sess.Advance(ctx, safeland.SelectRequest{
					Image: streams[v][k], MPP: mpps[v],
				})
				if resp.Err != nil {
					b.Fatalf("vehicle %d frame %d hard-failed under chaos: %v", v, k, resp.Err)
				}
				frames++
				retried += resp.Retried
				if resp.Degraded {
					if resp.Result.Confirmed {
						b.Fatalf("vehicle %d frame %d: degraded verdict claims a confirmed zone", v, k)
					}
					degraded++
				}
			}
		}
		b.StopTimer()
		for _, sess := range sessions {
			sess.Close()
		}
		router.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
	b.ReportMetric(100*float64(degraded)/float64(frames), "degraded-%")
	b.ReportMetric(100*float64(retried)/float64(frames), "retried-%")
}
