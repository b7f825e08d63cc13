package congest

import "fmt"

const (
	// minShardVertices keeps shards coarse enough that the per-shard
	// dispatch cost (one atomic increment on the work cursor) stays
	// negligible next to the program work inside the shard.
	minShardVertices = 16
	// shardsPerWorker oversubscribes shards relative to workers so the
	// work-stealing cursor can rebalance uneven shard costs (e.g.
	// degree-skewed graphs where a few shards hold the hubs).
	shardsPerWorker = 4
)

// inlineWorkCutoff is the stepper's fan-out rule, decided from two
// quantities known at round start: the frontier (program invocations)
// and the traffic (len(curUni) + curBcastSlots, messages delivered). A
// round fans out to the runtime when
//
//	max(frontier, traffic/messagesPerInvocation) > inlineWorkCutoff
//
// and otherwise runs as one shard on the coordinating goroutine, where
// it costs less than the batch dispatch and barrier. Traffic is
// discounted because a sparse round's per-message cost is mostly the
// coordinator's serial inbox build, which shards cannot split. Measured
// on a 2-core VM: on GNP-2048 (mean degree 20, every vertex awake)
// sparse rounds of ~11k messages ran no faster fanned out and dense
// rounds of ~44k ran 1.7× faster, while GNP-1024 (mean degree 16),
// whose dense rounds carry ~18k messages, built ~9% slower with them
// fanned out to four workers, so the threshold sits above them. The
// dense near-neighbors rounds of graphs from a few thousand vertices up
// therefore fan out, while near-empty rounds and rounds where every
// vertex runs but few messages move stay inline; a frontier above the
// cutoff always fans out. The inline path is the one-shard execution
// without the Runtime.Do round-trip, and shard layout never changes the
// output, so every cutoff gives the identical run. A var only so tests
// can force either path (SetInlineWorkCutoff).
var inlineWorkCutoff = 2048

// SetInlineWorkCutoff overrides the fan-out cutoff and returns the
// function that restores it. It is a test hook: math.MaxInt runs every
// round inline and 0 dispatches every round to the runtime, and both
// give the identical execution. It must not be called while any
// simulator runs.
func SetInlineWorkCutoff(c int) (restore func()) {
	old := inlineWorkCutoff
	inlineWorkCutoff = c
	return func() { inlineWorkCutoff = old }
}

// messagesPerInvocation is how many delivered messages count as much
// round work as one program invocation in the fan-out rule.
const messagesPerInvocation = 16

// fansOut is the fan-out rule: whether a round with the given frontier
// length and traffic is submitted to the runtime.
func fansOut(frontier, traffic int) bool {
	return max(frontier, traffic/messagesPerInvocation) > inlineWorkCutoff
}

// shardState is one shard's private mutable state for a round: its send
// log and its reusable vertex handle. Each shardState is a separate heap
// allocation padded past a cache line, so two workers appending to
// adjacent shards' logs or rewriting adjacent shards' Envs never contend
// on a line — the shard-affine layout that keeps large dense rounds from
// false-sharing.
type shardState struct {
	log sendLog
	env Env
	_   [64]byte
}

// recordPanic keeps the round's lowest panicking vertex and its value.
func (s *Simulator) recordPanic(v int, r any) {
	s.panicMu.Lock()
	if s.panicked == nil || v < s.panicVertex {
		s.panicked = fmt.Sprintf("vertex %d: %v", v, r)
		s.panicVertex = v
	}
	s.panicMu.Unlock()
}

// runShard executes one round for every frontier vertex in index range
// [lo, hi), in frontier (ascending vertex) order. A panicking vertex
// aborts its shard (the coordinator re-raises the lowest panicking
// vertex after the round barrier, so nothing downstream observes the
// partial state).
func (s *Simulator) runShard(lo, hi int, st *shardState) {
	v := int(s.frontier[lo])
	defer func() {
		if r := recover(); r != nil {
			s.recordPanic(v, r)
		}
	}()
	env := &st.env
	*env = Env{sim: s, out: &st.log}
	for j := lo; j < hi; j++ {
		v = int(s.frontier[j])
		env.id = v
		env.base = int(s.g.Offset(v))
		env.sentUni = false
		s.progs[v].Round(env)
	}
}

// runFrontier runs Round on every frontier vertex: inline as shard 0
// when the fan-out rule says the round is light, otherwise as a batch of
// frontier-range shards on the runtime. It returns after the round
// barrier with the shard logs merged in ascending frontier order.
//
// Fan-out happens on the shared runtime (Options.Runtime): each
// fanned-out round the coordinator submits one batch of shards via
// sched.Runtime.Do, and whichever runtime workers are free — plus the
// coordinating goroutine itself — claim shards off the batch cursor. The
// simulator therefore owns no goroutines of its own; any number of
// concurrent simulators share the runtime's bounded pool.
//
// Shards are frontier-sized: each round the frontier list is cut into
// contiguous index ranges, so a round with f active vertices submits
// O(f/shardSize) shards regardless of n. The shard layout is a pure
// function of len(frontier) and the worker bound, hence deterministic.
//
// Determinism of the execution itself is structural, not scheduled: a
// round's sends write no structure that two shards share. Each shard's send log
// is appended only by the worker running that shard, and the per-vertex
// and per-slot send flags (sent, nxBcastOn) and broadcast entries a
// vertex sets are its own, a disjoint region per sender. The coordinator
// merges the shard logs in ascending shard order at the round barrier —
// shards cover ascending frontier ranges and run their vertices in
// order, so the merged lists equal a one-shard round's no matter how
// many shards there are or which workers ran them. The remaining
// order-sensitive observables are canonicalized to the lowest (round,
// vertex): the reported violation error is the one a one-shard round
// reports, and a program panic is re-raised, wrapped with its vertex,
// for the lowest panicking vertex of the round.
func (s *Simulator) runFrontier() {
	n := len(s.frontier)
	if n == 0 {
		return
	}
	if !fansOut(n, len(s.curUni)+s.curBcastSlots) {
		s.runShard(0, n, s.shards[0])
		if s.panicked != nil { // inline: no other writers, no lock needed
			panic(s.panicked)
		}
		s.collectLog(&s.shards[0].log, len(s.shards[0].log.uni))
		return
	}
	workers := min(s.opts.Runtime.Workers(), n)
	size := (n + workers*shardsPerWorker - 1) / (workers * shardsPerWorker)
	if size < minShardVertices {
		size = minShardVertices
	}
	shards := (n + size - 1) / size
	for len(s.shards) < shards {
		s.shards = append(s.shards, &shardState{})
	}
	s.opts.Runtime.Do(shards, func(i int) {
		lo := i * size
		hi := min(lo+size, n)
		s.runShard(lo, hi, s.shards[i])
	})
	s.panicMu.Lock()
	p := s.panicked
	s.panicMu.Unlock()
	if p != nil {
		panic(p) // re-raise program panics on the coordinating goroutine
	}
	// Merge in shard order = ascending frontier order: bit-identical to
	// the one-shard round's merge.
	uni := 0
	for i := 0; i < shards; i++ {
		uni += len(s.shards[i].log.uni)
	}
	for i := 0; i < shards; i++ {
		s.collectLog(&s.shards[i].log, uni)
	}
}
