// Package core implements the paper's contribution: the deterministic
// CONGEST-model construction of (1+ε, β)-spanners (§2).
//
// The construction proceeds in phases over a shrinking collection of
// clusters, carried as its center list S_i: S_0 = V, and S_{i+1} = RS_i,
// since every supercluster of P_{i+1} is rooted at a ruling-set vertex.
// No step reads more of P_i than its centers, so the member sets are
// built only for callers that keep them (Options.KeepClusters). Each
// phase i runs:
//
//	superclustering (§2.2)
//	  1. Algorithm 1 detects popular cluster centers W_i
//	     (>= deg_i other centers within δ_i).
//	  2. A deterministic (2δ_i+1, (2/ρ̂)δ_i)-ruling set RS_i ⊆ W_i is
//	     computed (Theorem 2.2).
//	  3. A BFS forest of depth (2/ρ̂)δ_i grown from RS_i superclusters
//	     every spanned center's cluster into its root's supercluster
//	     (Lemma 2.4 guarantees all popular centers are spanned); the
//	     forest root paths are added to H.
//	interconnection (§2.3)
//	  4. Every center whose cluster was not superclustered (U_i) adds a
//	     shortest path to every center within δ_i, using the traceback
//	     pointers recorded by Algorithm 1.
//
// The final phase ℓ skips superclustering. The union of the added paths
// and forests is the spanner H.
//
// Build executes the construction either distributedly (on the CONGEST
// simulator, measuring rounds) or centrally (same deterministic
// decisions, no round machinery); the two modes produce the identical
// spanner (tested), so large-scale size/stretch experiments can use the
// fast mode while round measurements come from the real protocol stack.
package core

import (
	"context"
	"fmt"

	"nearspan/internal/cluster"
	"nearspan/internal/congest"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
	"nearspan/internal/sched"
)

// Mode selects the execution backend.
type Mode int

const (
	// ModeCentralized runs the reference implementation.
	ModeCentralized Mode = iota + 1
	// ModeDistributed runs the CONGEST protocol stack.
	ModeDistributed
)

func (m Mode) String() string {
	switch m {
	case ModeCentralized:
		return "centralized"
	case ModeDistributed:
		return "distributed"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure Build. The zero value selects the centralized
// backend.
type Options struct {
	Mode Mode
	// Engine is read by nothing: the simulator has one stepper.
	//
	// Deprecated: leave it unset.
	Engine congest.Engine
	// Delivery selects the within-round message delivery order of the
	// simulator (ModeDistributed only). Correct protocols are
	// order-independent; running under DeliverPortDescending is an
	// adversarial-scheduling check of the full phase pipeline.
	Delivery congest.DeliveryOrder
	// KeepClusters retains the per-phase cluster collections in the
	// result for verification and figure rendering. It costs one int32
	// center column per P_i and U_i; the construction itself needs only
	// the center lists.
	KeepClusters bool
	// Runtime is the shared execution runtime distributed builds submit
	// their simulator rounds to; nil selects the process-wide default.
	// Concurrent Builds given the same runtime share one bounded worker
	// pool instead of stacking private pools.
	Runtime *sched.Runtime
	// OnStep, when set, receives each protocol step's metrics as it
	// completes — the per-build progress stream. It is invoked
	// synchronously on the building goroutine, in execution order, in
	// both modes (centralized steps report their schedule budgets). Fan
	// one build out to several consumers with protocols.StepFanout.
	OnStep func(protocols.StepMetrics)
	// RoundBudget, when positive, bounds the build's rounds: a build
	// succeeds if and only if its Result.TotalRounds <= RoundBudget, in
	// both modes, for Build and Rebuild. Every recorded step is charged
	// its rounds (executed, idle, replayed and centralized alike); the
	// first step that does not fit aborts the construction with a
	// wrapped *congest.ErrBudgetExhausted — the service layer's per-job
	// round cap. A distributed session cut mid-run carries the live
	// pending-message histogram.
	RoundBudget int
	// KeepRebuildState retains, in Result.Rebuild, the state a later
	// Rebuild replays against: the source graph, the per-phase center
	// sets, near-neighbors tables, and forward transcripts. Costs memory
	// proportional to the tables (the spanner pipeline's dominant state)
	// but makes edge-delta rebuilds frontier-scoped instead of
	// from-scratch. Rebuild results always retain it, so rebuilds chain.
	KeepRebuildState bool
}

// PhaseStats records one phase's measurements, aligned with the paper's
// per-phase quantities.
type PhaseStats struct {
	Index       int
	Deg         int   // deg_i
	Delta       int32 // δ_i
	Clusters    int   // |P_i|
	Popular     int   // |W_i|
	RulingSet   int   // |RS_i| = |P_{i+1}|
	Unclustered int   // |U_i|
	EdgesSC     int   // edges added by superclustering
	EdgesIC     int   // edges added by interconnection
	RoundsNN    int   // Algorithm 1 rounds
	RoundsRS    int   // ruling set rounds
	RoundsSC    int   // forest growth + forest-climb rounds
	RoundsIC    int   // interconnection trace rounds
	Messages    int64 // messages sent during this phase (distributed mode)
}

// Rounds returns the phase's total round count.
func (ps PhaseStats) Rounds() int {
	return ps.RoundsNN + ps.RoundsRS + ps.RoundsSC + ps.RoundsIC
}

// Result is the outcome of one spanner construction.
type Result struct {
	Spanner *graph.Graph
	Params  *params.Params
	Mode    Mode
	Phases  []PhaseStats

	// Steps is the per-step metrics stream, one entry per protocol
	// session in execution order (ℓ+1 phases × up to 5 steps). Within
	// each phase the step rounds sum to the phase's Rounds(). In
	// ModeCentralized the entries carry the schedule budgets with zero
	// messages.
	Steps []protocols.StepMetrics

	// ArenaBytes is the size of the simulator's message stores and slot
	// tables in ModeDistributed (zero in ModeCentralized) — the build's
	// arena footprint, tracked as a high-water mark by the service layer.
	// The unicast lists are counted at the busiest unicast round's
	// length, so this is a measured quantity: it reflects the traffic the
	// protocols actually sent, not the worst-case topology bound, and it
	// does not depend on how the simulator schedules its rounds.
	ArenaBytes int64

	// ArenaBytesWorstCase is what ArenaBytes would have been had some
	// round carried a unicast on every slot. The measured/worst-case
	// ratio is the scale regime's memory headroom.
	ArenaBytesWorstCase int64

	// TotalRounds is the sum of Steps' rounds: the measured CONGEST
	// round count in ModeDistributed. In ModeCentralized it counts only
	// the fixed-schedule protocol budgets (Algorithm 1, ruling sets,
	// forest growth), which are identical to the distributed ones by
	// construction; the message-driven path-tracing rounds are measured
	// only by the distributed mode.
	TotalRounds int
	// Messages is the sum of Steps' messages (ModeDistributed only).
	Messages int64

	// P[i] is the cluster collection entering phase i; U[i] the clusters
	// interconnected at phase i (only when Options.KeepClusters). Each is
	// a center column: P[i+1] is P[i] relabelled through the phase's
	// forest roots, U[i] is P[i] less its superclustered clusters, and
	// Clusters() materializes the member lists.
	P []*cluster.Collection
	U []*cluster.Collection

	// Rebuild is the retained delta-rebuild state (with
	// Options.KeepRebuildState, and always on Rebuild results).
	Rebuild *RebuildState

	// Incremental reports that this result came from Rebuild's
	// frontier-scoped path; false for full builds and for rebuilds that
	// fell back to a full build. Tracked is the total dirty-frontier
	// size across phases when Incremental.
	Incremental bool
	Tracked     int
}

// EdgeCount returns |E_H|.
func (r *Result) EdgeCount() int { return r.Spanner.M() }

// backend abstracts the two execution strategies. Each step method
// records its step in the build's ledger: the fixed-schedule steps
// (nearNeighbors, rulingSet, forest) charge the protocol budgets in both
// modes; climb rounds are measured in distributed mode and zero
// centrally. climb adds the traced edges into h directly, returning how
// many were new (the step's contribution to |E_H|).
type backend interface {
	nearNeighbors(ctx context.Context, centers []int, deg int, delta int32, rec *protocols.TranscriptRecorder) (protocols.NNResult, error)
	rulingSet(ctx context.Context, members []int, q int32, c int) ([]int, error)
	forest(ctx context.Context, roots []int, depth int32) (protocols.ForestResult, error)
	climb(ctx context.Context, step string, rt *protocols.Routing, start [][]int64, keysPerVertex, pathLen int, h *graph.Builder) (int, error)
	arenaBytes() int64
	arenaWorstCase() int64
}

// nnHook lets Rebuild substitute the near-neighbors step of each phase
// with a transcript-diff splice. It returns handled = false to fall
// through to the real protocol, or an error to abort the build (the
// fallback-to-full signal surfaces this way).
type nnHook func(ctx context.Context, phase int, centers []int) (nn protocols.NNResult, tr protocols.NNTranscript, tracked int, handled bool, err error)

// Build constructs the spanner for g under p. Cancelling the context
// aborts the construction — within one simulated round in distributed
// mode, at the next protocol step centrally — and returns the context's
// error (wrapped); a cancelled Build never returns a partial spanner.
func Build(ctx context.Context, g *graph.Graph, p *params.Params, opts Options) (*Result, error) {
	return buildWith(ctx, g, p, opts, nil)
}

// build is the shared construction engine behind Build and Rebuild:
// hook, when non-nil, may substitute each phase's near-neighbors step
// with a spliced result (recorded as a replayed step).
func buildWith(ctx context.Context, g *graph.Graph, p *params.Params, opts Options, hook nnHook) (*Result, error) {
	if p.N != g.N() {
		return nil, fmt.Errorf("core: params for n=%d but graph has n=%d", p.N, g.N())
	}
	if opts.Mode == 0 {
		opts.Mode = ModeCentralized
	}
	led := protocols.NewLedger(opts.RoundBudget, opts.OnStep)
	var bk backend
	switch opts.Mode {
	case ModeCentralized:
		bk = &centralBackend{g: g, nEst: p.NEstimate, led: led}
	case ModeDistributed:
		// One persistent network for the whole construction: every
		// phase's protocol steps attach to it as sessions, and every
		// round executes on the shared runtime.
		db, err := newDistributedBackend(g, p.NEstimate,
			congest.Options{Delivery: opts.Delivery, Runtime: opts.Runtime}, led)
		if err != nil {
			return nil, err
		}
		bk = db
	default:
		return nil, fmt.Errorf("core: unknown mode %d", opts.Mode)
	}

	res := &Result{Params: p, Mode: opts.Mode}
	var state *RebuildState
	if opts.KeepRebuildState || hook != nil {
		state = &RebuildState{Graph: g, Params: p}
	}
	h := graph.NewBuilder(g.N())

	// centers is S_i, ascending: every vertex at phase 0, then each
	// phase's ruling set, the centers of P_{i+1} (§2.2). The collection
	// P_i itself is built only when the caller keeps it.
	centers := make([]int, g.N())
	for v := range centers {
		centers[v] = v
	}
	var cur *cluster.Collection
	if opts.KeepClusters {
		cur = cluster.Singletons(g.N())
	}

	// superclustered flags this phase's absorbed centers; dense and
	// reset per phase in O(1).
	superclustered := cluster.NewAssignment(g.N())

	for i := 0; i <= p.L; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: phase %d: %w", i, err)
		}
		if cur != nil {
			res.P = append(res.P, cur)
		}
		led.BeginPhase(i)
		ps := PhaseStats{Index: i, Deg: p.Deg[i], Delta: p.Delta[i], Clusters: len(centers)}

		// Algorithm 1: popularity detection + neighborhood knowledge —
		// either the real protocol, or (under Rebuild's hook) a
		// transcript-diff splice recorded as a replayed step.
		var nn protocols.NNResult
		var tr protocols.NNTranscript
		var err error
		handled := false
		if hook != nil {
			var tracked int
			nn, tr, tracked, handled, err = hook(ctx, i, centers)
			if err != nil {
				return nil, fmt.Errorf("core: phase %d near-neighbors: %w", i, err)
			}
			if handled {
				if err := led.Record(protocols.StepMetrics{Step: protocols.StepNearNeighbors,
					Rounds: protocols.NearNeighborsRounds(p.Deg[i], p.Delta[i]), Replayed: true}); err != nil {
					return nil, fmt.Errorf("core: phase %d near-neighbors: %w", i, err)
				}
				res.Tracked += tracked
			}
		}
		if !handled {
			var rec *protocols.TranscriptRecorder
			if state != nil {
				rec = protocols.NewTranscriptRecorder(g.N())
			}
			nn, err = bk.nearNeighbors(ctx, centers, p.Deg[i], p.Delta[i], rec)
			if err != nil {
				return nil, fmt.Errorf("core: phase %d near-neighbors: %w", i, err)
			}
			if rec != nil {
				tr = rec.Finish()
			}
		}
		if state != nil {
			// Each phase's center list is fresh and never written, so
			// the state shares it.
			state.Phases = append(state.Phases, RebuildPhase{
				Centers: centers, NN: nn, Transcript: tr,
			})
		}

		superclustered.Reset()
		var rs []int
		var root []int64
		if i < p.L {
			rs, root, err = superclusterPhase(ctx, bk, g, p, i, centers, nn, h, superclustered, &ps)
			if err != nil {
				return nil, err
			}
		}

		// Interconnection (all phases; phase ℓ has U_ℓ = P_ℓ).
		ps.EdgesIC, err = interconnect(ctx, bk, g, centers, nn, superclustered, p.Delta[i], h)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d interconnect: %w", i, err)
		}

		ps.Unclustered = len(centers) - superclustered.Len()
		res.Phases = append(res.Phases, ps)
		if cur != nil {
			res.U = append(res.U, cur.Without(superclustered))
			if i < p.L {
				cur = cur.Next(root)
			}
		}
		if i < p.L {
			centers = rs
		}
	}

	res.Spanner = h.Build()
	res.Rebuild = state
	// The phase and result totals are derived from the ledger's steps.
	res.Steps = led.Steps()
	for _, s := range res.Steps {
		ps := &res.Phases[s.Phase]
		switch s.Step {
		case protocols.StepNearNeighbors:
			ps.RoundsNN += s.Rounds
		case protocols.StepRulingSet:
			ps.RoundsRS += s.Rounds
		case protocols.StepForest, protocols.StepForestPaths:
			ps.RoundsSC += s.Rounds
		case protocols.StepInterconnect:
			ps.RoundsIC += s.Rounds
		}
		ps.Messages += s.Messages
		res.TotalRounds += s.Rounds
		res.Messages += s.Messages
	}
	res.ArenaBytes = bk.arenaBytes()
	res.ArenaBytesWorstCase = bk.arenaWorstCase()
	return res, nil
}

// superclusterPhase runs steps 2–3 of phase i and returns the ruling
// set RS_i (ascending: the centers S_{i+1}) with the forest's root
// column, which maps every spanned center to its new center. It fills
// the superclustered set, adds forest paths to h, and updates ps in
// place.
func superclusterPhase(ctx context.Context, bk backend, g *graph.Graph, p *params.Params, i int,
	centers []int, nn protocols.NNResult, h *graph.Builder,
	superclustered *cluster.Assignment, ps *PhaseStats) ([]int, []int64, error) {

	var popular []int
	for _, c := range centers {
		if nn.Popular[c] {
			popular = append(popular, c)
		}
	}
	ps.Popular = len(popular)

	rs, err := bk.rulingSet(ctx, popular, p.RulingSetQ(i), p.C)
	if err != nil {
		return nil, nil, fmt.Errorf("core: phase %d ruling set: %w", i, err)
	}
	ps.RulingSet = len(rs)

	depth := p.SuperclusterDepth(i)
	forest, err := bk.forest(ctx, rs, depth)
	if err != nil {
		return nil, nil, fmt.Errorf("core: phase %d forest: %w", i, err)
	}

	// Spanned centers join their root's supercluster; their forest root
	// paths go to H via a merged climb (one key: every vertex has a
	// single forest parent, so climbs toward different roots share the
	// dedupe).
	const forestKey = int64(-1)
	rt := protocols.NewForestRouting(forest.ParentPort, forestKey)
	start := make([][]int64, g.N())
	startKey := []int64{forestKey} // shared read-only start set
	for _, c := range centers {
		if forest.Dist[c] >= 0 {
			superclustered.Set(c)
			if forest.Dist[c] > 0 {
				start[c] = startKey
			}
		}
	}
	ps.EdgesSC, err = bk.climb(ctx, protocols.StepForestPaths, rt, start, 1, int(depth), h)
	if err != nil {
		return nil, nil, fmt.Errorf("core: phase %d supercluster paths: %w", i, err)
	}
	return rs, forest.Root, nil
}

// interconnect adds, for every center not superclustered this phase, a
// shortest path to every center it knows (all centers within δ_i, by
// Theorem 2.1(2)). The climb routes over Algorithm 1's own table, and
// each initiating center's start-key set is its key run in that table —
// no copies, already sorted.
func interconnect(ctx context.Context, bk backend, g *graph.Graph, centers []int, nn protocols.NNResult,
	superclustered *cluster.Assignment, delta int32, h *graph.Builder) (int, error) {

	start := make([][]int64, g.N())
	maxKeys := 0
	for _, c := range centers {
		if superclustered.Has(c) {
			continue
		}
		keys, _ := nn.Known(c)
		if len(keys) > 0 {
			start[c] = keys
		}
		if len(keys) > maxKeys {
			maxKeys = len(keys)
		}
	}
	return bk.climb(ctx, protocols.StepInterconnect, &nn.Routing, start, maxKeys, int(delta), h)
}
