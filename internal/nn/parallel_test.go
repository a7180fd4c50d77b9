package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestTrainingStepSameBitsAnyGOMAXPROCS pins that the training code's
// fan-out (parallelFor) computes the bits a serial run does: one training
// step of miniMSDNet — forward, loss, backward — from two identical
// networks, at GOMAXPROCS 1 and 4, must agree on the loss, the input
// gradient, every parameter gradient and BatchNorm's running statistics.
// The batch of four makes every fanned-out loop, the loss gradient's
// per-sample loop included, split into chunks at GOMAXPROCS 4.
func TestTrainingStepSameBitsAnyGOMAXPROCS(t *testing.T) {
	const batch, classes, side = 4, 5, 16
	x := randomInput([]int{batch, 3, side, side}, 31)
	rng := rand.New(rand.NewSource(32))
	targets := make([][]int, batch)
	for i := range targets {
		targets[i] = make([]int, side*side)
		for j := range targets[i] {
			targets[i][j] = rng.Intn(classes)
		}
	}
	type result struct {
		net  *Sequential
		loss float64
		dx   *Tensor
	}
	step := func(procs int) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		net := miniMSDNet(33)
		loss, grad := CrossEntropyLoss(net.Forward(x, true), targets, nil)
		return result{net: net, loss: loss, dx: net.Backward(grad)}
	}
	serial, fanned := step(1), step(4)

	if math.Float64bits(serial.loss) != math.Float64bits(fanned.loss) {
		t.Fatalf("loss %v at GOMAXPROCS 1, %v at 4", serial.loss, fanned.loss)
	}
	sameBits(t, "input gradient", serial.dx.Data, fanned.dx.Data)
	sp, fp := serial.net.Params(), fanned.net.Params()
	nonzero := false
	for i, p := range sp {
		sameBits(t, p.Name+" gradient", p.Grad.Data, fp[i].Grad.Data)
		for _, g := range p.Grad.Data {
			nonzero = nonzero || g != 0
		}
	}
	if !nonzero {
		t.Fatal("the training step produced no gradient")
	}
	norms := func(net *Sequential) []*BatchNorm2D {
		var bns []*BatchNorm2D
		net.Walk(func(l Layer) {
			if bn, ok := l.(*BatchNorm2D); ok {
				bns = append(bns, bn)
			}
		})
		return bns
	}
	sb, fb := norms(serial.net), norms(fanned.net)
	if len(sb) == 0 {
		t.Fatal("miniMSDNet has no BatchNorm layer")
	}
	for i, bn := range sb {
		sameBits(t, fmt.Sprintf("BatchNorm %d running mean", i), bn.RunningMean, fb[i].RunningMean)
		sameBits(t, fmt.Sprintf("BatchNorm %d running variance", i), bn.RunningVar, fb[i].RunningVar)
	}
}

// sameBits fails the test at the first element where got's bits differ
// from want's.
func sameBits(t *testing.T, what string, want, got []float32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d elements at GOMAXPROCS 1, %d at 4", what, len(want), len(got))
	}
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d = %v at GOMAXPROCS 1, %v at 4", what, i, want[i], got[i])
		}
	}
}
