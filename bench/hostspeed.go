package main

import "time"

// The benchmark runs on shared virtual machines whose other tenants slow
// every thread, by up to ~2.5× for minutes at a time. The host steals almost
// no time outright (under 5 % of CPU time): the slowdown comes from sharing
// the physical cores, so CPU time inflates with it as much as wall time.
// Over ten runs of one workload the raw closed-loop rate spread 6–28 % and
// the raw median latency 5–46 %, and between two sets of ten runs forty
// minutes apart their medians moved by up to 46 %, against bounds of at
// most 25 %.
//
// The host probe measures that slowdown while the benchmark runs: a fixed
// float32 multiply-add chain, the shape of the network's inner loops, owned
// by the benchmark so that no change to the program moves it. The closed-
// loop callers run it before every frame, so it samples the host while the
// other callers' frames run. Its mean time over a stretch of the loop,
// against its uncontended time, is the host slowdown of that stretch, and
// the time metrics are divided by it: they read as on an uncontended host,
// and the raw values are printed beside them. Over the same runs the
// normalised rate spread 1–7 % and the median latency 2–4 %, and neither
// median moved by more than 2.3 % between the sets, while the slowdown
// itself moved by up to 30 %.

// hostProbeRef is the probe's uncontended time on the 2-vCPU Intel Xeon
// virtual machine the benchmark was calibrated on: its shortest runs there.
const hostProbeRef = 360 * time.Microsecond

var hostProbeData = func() []float32 {
	a := make([]float32, 1<<15)
	for i := range a {
		a[i] = float32(i%7) * 0.5
	}
	return a
}()

// hostSample is one probe run: when it started and how long it took.
type hostSample struct {
	at   time.Time
	took time.Duration
	// sum is the kernel's result, kept so the compiler cannot drop the work.
	sum float32
}

// runHostProbe runs the fixed kernel once.
func runHostProbe() hostSample {
	t := time.Now()
	var s float32
	for r := 0; r < 16; r++ {
		for i := 0; i < len(hostProbeData)-1; i++ {
			s += hostProbeData[i] * hostProbeData[i+1]
		}
	}
	return hostSample{at: t, took: time.Since(t), sum: s}
}

// hostSamples are probe runs in time order.
type hostSamples []hostSample

// slowdown returns the host slowdown over every sample; 1 when there is
// none, which only a run too short to send a frame has.
func (hs hostSamples) slowdown() float64 {
	if len(hs) == 0 {
		return 1
	}
	f, _ := hs.slowdownIn(hs[0].at, hs[len(hs)-1].at.Add(1))
	return f
}

// slowdownIn returns the host slowdown over [from, to): the mean time of the
// probe runs started in it against hostProbeRef. ok is false when none did.
func (hs hostSamples) slowdownIn(from, to time.Time) (f float64, ok bool) {
	var sum time.Duration
	n := 0
	for _, s := range hs {
		if !s.at.Before(from) && s.at.Before(to) {
			sum += s.took
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return float64(sum) / float64(n) / float64(hostProbeRef), true
}
