package congest

import (
	"fmt"
	"sync"
)

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

// inlineFrontierCutoff is the frontier size below which the round runs
// as a single shard on the coordinating goroutine instead of being
// submitted to the runtime: for small frontiers the batch dispatch and
// barrier cost more than the round's program work, and on small graphs
// (~10³ vertices) that overhead made EngineParallel slower than
// EngineSequential. The inline path is the shards=1 execution with the
// Runtime.Do round-trip removed, so the output is bit-identical. A var
// only so tests can force either path.
var inlineFrontierCutoff = 2048

// shardState is one shard's private mutable state for a round: its send
// log, its gather scratch buffer, and its reusable vertex handle. Each
// shardState is a separate heap allocation padded past a cache line, so
// two workers appending to adjacent shards' logs or rewriting adjacent
// shards' Envs never contend on a line — the shard-affine layout that
// keeps large dense rounds from false-sharing. (Before this layout the
// per-vertex Env array interleaved every shard's dirty-list headers.)
type shardState struct {
	log     sendLog
	scratch []Inbound
	env     Env
	_       [64]byte
}

// parallelShards is EngineParallel's per-simulator state. Execution
// happens on the shared runtime (Options.Runtime): each round the
// coordinator submits one batch of shards via sched.Runtime.Do, and
// whichever runtime workers are free — plus the coordinating goroutine
// itself — claim shards off the batch cursor. The simulator therefore
// owns no goroutines of its own; any number of concurrent simulators
// share the runtime's bounded pool.
//
// Shards are frontier-sized: each round the frontier list is cut into
// contiguous index ranges, so a round with f active vertices submits
// O(f/shardSize) shards regardless of n. The shard layout is a pure
// function of len(frontier) and the worker bound, hence deterministic.
//
// Determinism of the execution itself is structural, not scheduled: a
// message's position in the next-round buffer is a pure function of its
// sender vertex and port (the CSR slot layout), so each shard writes a
// disjoint, pre-reserved region of the outbound buffer, and each
// shard's send log is appended only by the worker running that shard.
// The coordinator merges the shard logs in ascending shard order at the
// round barrier — shards cover ascending frontier ranges and run their
// vertices in order, so the merged lists equal a sequential round's no
// matter which workers ran which shards. (Arena pages allocated on
// first touch use compare-and-swap: which worker allocates a shared
// page is racy, but the touched-page set is deterministic, so the
// resulting arena is too.) The remaining order-sensitive observables
// are canonicalized to the lowest (round, vertex): the reported
// violation error matches EngineSequential's exactly, and the re-raised
// panic names the vertex the sequential engine would have hit first
// (wrapped in a formatted value — the sequential engine propagates the
// program's raw panic value and stops mid-round, which a shared pool
// cannot reproduce).
type parallelShards struct {
	workers int           // resolved shard fan-out bound, fixed per simulator
	shards  []*shardState // per-shard state, grown on demand

	panicMu     sync.Mutex
	panicVertex int
	panicked    any
}

func (ps *parallelShards) recordPanic(v int, r any) {
	ps.panicMu.Lock()
	if ps.panicked == nil || v < ps.panicVertex {
		ps.panicked = fmt.Sprintf("vertex %d: %v", v, r)
		ps.panicVertex = v
	}
	ps.panicMu.Unlock()
}

func (s *Simulator) initShards() {
	workers := s.opts.Workers
	if workers <= 0 {
		workers = s.opts.Runtime.Workers()
	}
	if workers < 1 {
		workers = 1
	}
	s.par = &parallelShards{workers: workers}
}

// runShard executes one round for every frontier vertex in index range
// [lo, hi), in frontier (ascending vertex) order. A panicking vertex
// aborts its shard (the coordinator re-raises the lowest panicking
// vertex after the round barrier, so nothing downstream observes the
// partial state).
func (s *Simulator) runShard(ps *parallelShards, lo, hi int, st *shardState) {
	v := int(s.frontier[lo])
	defer func() {
		if r := recover(); r != nil {
			ps.recordPanic(v, r)
		}
	}()
	env := &st.env
	*env = Env{sim: s, out: &st.log}
	scratch := st.scratch
	for j := lo; j < hi; j++ {
		v = int(s.frontier[j])
		recv := s.gatherInbound(v, scratch)
		env.id = v
		env.base = int(s.g.Offset(v))
		env.sentUni = false
		s.progs[v].Round(env, recv)
		scratch = recv[:0]
	}
	st.scratch = scratch
}

func (s *Simulator) stepParallel() {
	if s.par == nil {
		s.initShards()
	}
	ps := s.par
	n := len(s.frontier)
	if n == 0 {
		return
	}
	if n <= inlineFrontierCutoff {
		if len(ps.shards) == 0 {
			ps.shards = append(ps.shards, &shardState{})
		}
		s.runShard(ps, 0, n, ps.shards[0])
		if ps.panicked != nil { // inline: no other writers, no lock needed
			panic(ps.panicked)
		}
		s.collectLog(&ps.shards[0].log)
		return
	}
	workers := ps.workers
	if workers > n {
		workers = n
	}
	size := (n + workers*shardsPerWorker - 1) / (workers * shardsPerWorker)
	if size < minShardVertices {
		size = minShardVertices
	}
	shards := (n + size - 1) / size
	for len(ps.shards) < shards {
		ps.shards = append(ps.shards, &shardState{})
	}
	s.opts.Runtime.Do(shards, func(i int) {
		lo := i * size
		hi := min(lo+size, n)
		s.runShard(ps, lo, hi, ps.shards[i])
	})
	ps.panicMu.Lock()
	p := ps.panicked
	ps.panicMu.Unlock()
	if p != nil {
		panic(p) // re-raise program panics on the coordinating goroutine
	}
	// Merge in shard order = ascending frontier order: bit-identical to
	// the sequential engine's per-vertex merge.
	for i := 0; i < shards; i++ {
		s.collectLog(&ps.shards[i].log)
	}
}
