package protocols

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/gen"
)

// A subscriber attached after some emissions must see the full history
// replayed, then the live stream, with no gap and no duplicate.
func TestStepFanoutReplayThenLive(t *testing.T) {
	var fan StepFanout
	for i := 0; i < 5; i++ {
		fan.Emit(StepMetrics{Step: "pre", Rounds: i})
	}
	var got []StepMetrics
	fan.Subscribe(func(sm StepMetrics) { got = append(got, sm) })
	for i := 5; i < 10; i++ {
		fan.Emit(StepMetrics{Step: "post", Rounds: i})
	}
	if len(got) != 10 {
		t.Fatalf("subscriber saw %d metrics, want 10 (5 replayed + 5 live)", len(got))
	}
	for i, sm := range got {
		if sm.Rounds != i {
			t.Fatalf("position %d carries Rounds=%d: stream torn", i, sm.Rounds)
		}
	}
	if steps := fan.Steps(); len(steps) != 10 {
		t.Errorf("history holds %d entries, want 10", len(steps))
	}
}

// Once Unsubscribe returns the callback must never fire again, and
// unsubscribing an unknown or already-removed id is a no-op.
func TestStepFanoutUnsubscribeStopsDelivery(t *testing.T) {
	var fan StepFanout
	calls := 0
	id := fan.Subscribe(func(StepMetrics) { calls++ })
	fan.Emit(StepMetrics{Rounds: 0})
	fan.Unsubscribe(id)
	fan.Unsubscribe(id)
	fan.Unsubscribe(999)
	fan.Emit(StepMetrics{Rounds: 1})
	if calls != 1 {
		t.Fatalf("callback fired %d times, want 1 (one emit before unsubscribe)", calls)
	}
	if fan.Len() != 0 {
		t.Fatalf("fanout reports %d subscribers after unsubscribe", fan.Len())
	}
}

// Randomized subscribe/unsubscribe churn against a concurrent emitter,
// in the style of the frontier fuzz suite: whatever the interleaving,
// every subscriber must observe an exact prefix of the emitted stream
// (replay guarantees the start, the emit lock guarantees no tear, and
// Unsubscribe guarantees a clean cut). Run with -race this is also the
// data-race regression test for multi-consumer OnStep delivery.
func TestStepFanoutRandomizedSubscribeUnsubscribe(t *testing.T) {
	const (
		workers = 4
		emits   = 300
	)
	for seed := int64(0); seed < 10; seed++ {
		var fan StepFanout
		done := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*100 + int64(w)))
				for {
					select {
					case <-done:
						return
					default:
					}
					// got is written only under the fanout lock (replay in
					// Subscribe, delivery in Emit) and read after Unsubscribe
					// returns, which orders the accesses.
					var got []StepMetrics
					id := fan.Subscribe(func(sm StepMetrics) { got = append(got, sm) })
					for i := rng.Intn(4); i > 0; i-- {
						runtime.Gosched()
					}
					fan.Unsubscribe(id)
					for i, sm := range got {
						if sm.Rounds != i {
							t.Errorf("seed %d worker %d: position %d carries Rounds=%d: not a prefix",
								seed, w, i, sm.Rounds)
							return
						}
					}
				}
			}(w)
		}
		for i := 0; i < emits; i++ {
			fan.Emit(StepMetrics{Step: "fuzz", Rounds: i})
			if i%16 == 0 {
				runtime.Gosched()
			}
		}
		close(done)
		wg.Wait()
	}
}

// The fan-out wired into a real network: sessions emit through the
// fan-out while subscribers churn, and a subscriber attached for the
// whole run must see exactly the network's recorded step stream. This is
// the regression test for the /events use case — consumers attaching and
// detaching mid-build.
func TestStepFanoutDuringNetworkSessions(t *testing.T) {
	g := gen.GNP(70, 0.1, 7, true)
	var fan StepFanout
	led := NewLedger(0, fan.Emit)
	net, err := NewNetwork(g, congest.Options{}, led)
	if err != nil {
		t.Fatal(err)
	}

	var full []StepMetrics
	fan.Subscribe(func(sm StepMetrics) { full = append(full, sm) })

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var got []StepMetrics
				id := fan.Subscribe(func(sm StepMetrics) { got = append(got, sm) })
				runtime.Gosched()
				fan.Unsubscribe(id)
				for i := 1; i < len(got); i++ {
					if got[i-1] == got[i] {
						t.Errorf("worker %d: duplicate delivery %+v", w, got[i])
						return
					}
				}
			}
		}(w)
	}

	ctx := context.Background()
	for phase := 0; phase < 8; phase++ {
		led.BeginPhase(phase)
		if _, err := RunNearNeighborsRec(ctx, net, func(int) bool { return true }, 3, 2, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	steps := led.Steps()
	if len(full) != len(steps) {
		t.Fatalf("persistent subscriber saw %d metrics, network recorded %d", len(full), len(steps))
	}
	for i := range steps {
		if full[i] != steps[i] {
			t.Errorf("step %d: subscriber %+v vs network %+v", i, full[i], steps[i])
		}
	}
}
