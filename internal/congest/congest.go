// Package congest simulates the synchronous CONGEST model of distributed
// computation (Peleg 2000; paper §1.3.1): one processor per graph vertex,
// communication with graph neighbors in synchronous rounds, and messages
// limited to O(1) words per edge per round.
//
// Two interchangeable engines execute node programs:
//
//   - EngineSequential: a single-threaded round loop — the reference
//     execution.
//   - EngineParallel: vertices partitioned into shards multiplexed onto
//     the shared execution runtime (package sched) each round — uses all
//     cores, the engine for large experiments; any number of concurrent
//     simulators share one bounded worker pool.
//
// Both engines are deterministic and produce bit-identical executions
// for the same program (tested), so round counts measured on either are
// the paper's "running time". See parallel.go for the determinism
// argument.
//
// Bandwidth is enforced: a node may send at most Options.Bandwidth
// messages (default 1) of at most MessageWords words over each incident
// edge per round. Violations are reported as errors, never silently
// dropped, so an algorithm that would not be a valid CONGEST algorithm
// cannot produce a result that looks valid.
package congest

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"nearspan/internal/graph"
	"nearspan/internal/sched"
)

// MessageWords is the fixed number of payload words in a Message. Three
// words fit every protocol in this repository (e.g. center ID + distance),
// and keeping it a small constant is exactly the CONGEST "O(1) words"
// regime.
const MessageWords = 3

// Message is one CONGEST message: a kind tag plus MessageWords words.
type Message struct {
	Kind  uint8
	Words [MessageWords]int64
}

// Inbound is a received message together with the local port it arrived
// on. Port p of vertex v corresponds to v's p-th neighbor in sorted
// adjacency order (the standard port-numbering model).
type Inbound struct {
	Port int
	Msg  Message
}

// Program is the per-vertex state machine. Each vertex runs its own
// Program instance.
//
// Init is called once before round 1; messages sent from Init are
// delivered in round 1. Round is called once per round r >= 1 with the
// messages sent to this vertex in the previous round (or Init), sorted by
// arrival port. Messages sent during Round(r) are delivered at Round(r+1).
//
// The recv slice is reused between calls: programs must not retain it (or
// its elements by reference) past the return of Round.
type Program interface {
	Init(env *Env)
	Round(env *Env, recv []Inbound)
}

// Engine selects the execution strategy.
type Engine int

const (
	// EngineSequential runs all vertices in a single goroutine.
	EngineSequential Engine = iota + 1
	// EngineParallel runs vertex shards on the shared execution runtime
	// (see Options.Runtime), letting concurrent simulators share one
	// bounded worker pool.
	EngineParallel
)

func (e Engine) String() string {
	switch e {
	case EngineSequential:
		return "sequential"
	case EngineParallel:
		return "parallel"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Engines lists the available engines in display order.
func Engines() []Engine {
	return []Engine{EngineSequential, EngineParallel}
}

// ParseEngine parses an engine name as printed by Engine.String.
func ParseEngine(name string) (Engine, error) {
	var names []string
	for _, e := range Engines() {
		if e.String() == name {
			return e, nil
		}
		names = append(names, e.String())
	}
	return 0, fmt.Errorf("congest: unknown engine %q (want %s)", name, strings.Join(names, "|"))
}

// DeliveryOrder controls the order in which a round's messages are
// presented to Program.Round. Correct CONGEST algorithms must not depend
// on arrival order within a round; running the test suite under
// DeliverPortDescending is a cheap adversarial-scheduling check.
type DeliveryOrder int

const (
	// DeliverPortAscending presents messages sorted by arrival port
	// (the default).
	DeliverPortAscending DeliveryOrder = iota
	// DeliverPortDescending presents messages in reverse port order.
	DeliverPortDescending
)

// MaxBandwidth is the largest accepted Options.Bandwidth: per-slot
// message counters are uint16, so the per-edge per-round budget must fit
// one. Every CONGEST protocol in this repository uses single-digit
// bandwidth; the cap exists so the counter width is an enforced
// invariant rather than a silent wraparound at adversarial settings.
const MaxBandwidth = math.MaxUint16

// Options configure a Simulator. The zero value selects the sequential
// engine with bandwidth 1 and ascending delivery.
type Options struct {
	Engine    Engine        // defaults to EngineSequential
	Bandwidth int           // messages per directed edge per round; defaults to 1, max MaxBandwidth
	Delivery  DeliveryOrder // defaults to DeliverPortAscending
	// Runtime is the shared execution runtime EngineParallel submits its
	// round batches to; it also hosts the per-runtime simulator counter.
	// Nil selects the process-wide sched.Default(). Supply a private
	// runtime (sched.New) to isolate pool lifecycle or counters — e.g.
	// batch builders that must release every goroutine on Close.
	Runtime *sched.Runtime
	// Workers bounds the per-round shard fan-out of EngineParallel;
	// defaults to the runtime's worker count. Any value produces the
	// identical execution — it only changes scheduling granularity.
	Workers int
	// ArenaFraction controls how much of the worst-case unicast message
	// arena is preallocated at construction. The arena is paged: pages
	// not preallocated are acquired on first touch and retained (a
	// monotone high-water), so the resident arena tracks measured
	// traffic instead of the nSlots×Bandwidth worst case. 0 selects the
	// default (1/64 of the pages); values >= 1 preallocate the full
	// worst-case arena (the pre-scale-up behavior); negative values
	// preallocate nothing. The setting never affects the execution —
	// only when pages are allocated — so all values produce bit-identical
	// runs (and identical final ArenaBytes, since the touched-page set is
	// deterministic).
	ArenaFraction float64
}

func (o Options) withDefaults() Options {
	if o.Engine == 0 {
		o.Engine = EngineSequential
	}
	if o.Bandwidth <= 0 {
		o.Bandwidth = 1
	}
	if o.Runtime == nil {
		o.Runtime = sched.Default()
	}
	return o
}

// Metrics aggregates execution statistics. Rounds counts executed rounds
// (Init is not a round). Messages counts sent messages.
type Metrics struct {
	Rounds          int
	Messages        int64
	MaxRoundTraffic int64 // most messages sent in any single round
}

// ErrBandwidth is returned (wrapped) when a program exceeds the per-edge
// per-round message budget.
var ErrBandwidth = errors.New("congest: bandwidth exceeded")

// ErrPort is returned (wrapped) when a program sends on an invalid port.
var ErrPort = errors.New("congest: invalid port")

// ErrBudgetExhausted reports that RunUntilQuiet consumed its entire
// round budget without reaching quiescence. It carries the in-flight
// message histogram and the count of still-active vertices, so a stuck
// message-driven protocol (e.g. a path climb that never drains) can be
// diagnosed from the error alone instead of a debugger. Retrieve it with
// errors.As.
type ErrBudgetExhausted struct {
	MaxRounds int           // the exhausted budget
	Pending   int           // messages still in flight
	ByKind    map[uint8]int // pending messages by kind
	Active    int           // vertices that have not halted
}

func (e *ErrBudgetExhausted) Error() string {
	var kinds strings.Builder
	for i, k := range slices.Sorted(maps.Keys(e.ByKind)) {
		if i > 0 {
			kinds.WriteString(" ")
		}
		fmt.Fprintf(&kinds, "kind %d: %d", k, e.ByKind[k])
	}
	return fmt.Sprintf("congest: round budget %d exhausted before quiescence: %d message(s) in flight (%s), %d vertex(es) active",
		e.MaxRounds, e.Pending, kinds.String(), e.Active)
}

// msgBytes is the in-memory size of one Message.
const msgBytes = int64(unsafe.Sizeof(Message{}))

const (
	// maxPageShift sizes unicast arena pages at 2^6 = 64 slots (2 KiB of
	// messages at bandwidth 1). Pages this fine matter: a climb round's
	// senders each touch one slot scattered across the whole arena, so
	// the round's live footprint is pages × page-size — with 4096-slot
	// pages a few thousand scattered senders pin the entire worst-case
	// arena, with 64-slot pages they pin ~2 KiB each. The page-pointer
	// table costs 1 pointer per 64 slots (0.4% of the full arena).
	maxPageShift = 6
	// minPageShift keeps pages from degenerating on tiny topologies
	// (the geometry loop shrinks pages until a graph has at least ~8 of
	// them, which also keeps high-bandwidth test rigs on small graphs
	// from allocating huge pages).
	minPageShift = 1
)

// sendLog collects one execution scope's outbound effects for the round:
// the slots that received their first unicast (in program send order) and
// the vertices that issued compact broadcasts. Each engine gives every
// concurrently-running scope its own log — the sequential engine one
// (merged after every vertex), the parallel engine one per shard — so
// the send path needs no synchronization, and the coordinator merges
// logs in ascending frontier order at the barrier, making the global
// lists engine-independent.
type sendLog struct {
	dirty []int32 // slots first-touched by a unicast this round
	bcast []int32 // vertices with pending compact broadcasts
}

func (l *sendLog) reset() {
	l.dirty = l.dirty[:0]
	l.bcast = l.bcast[:0]
}

// Simulator executes one Program instance per vertex of a graph.
//
// Round execution is frontier-driven: the per-round cost is
// O(frontier + messages), not O(n + m). The simulator maintains a
// dirty-slot list (the directed-edge slots that carry messages), a
// broadcaster list (vertices whose round output is a whole-neighborhood
// broadcast, stored once instead of once per edge), and an active list
// (the vertices that have not halted); each round it derives the
// frontier — active vertices plus the halted destinations of dirty slots
// and broadcasts — and only those vertices run. See docs/ARCHITECTURE.md,
// "Frontier scheduling", for the determinism argument.
type Simulator struct {
	g     *graph.Graph
	opts  Options
	progs []Program

	// twin[s] is the directed-edge slot of the reverse edge of slot s,
	// where slot g.Offset(v)+p is the edge out of vertex v's port p —
	// the slot index range of v is exactly v's CSR adjacency range, so
	// the destination vertex of slot s is g.AdjAt(s) and its port there
	// is twin[s]-g.Offset(g.AdjAt(s)). The twin table is the only
	// per-slot topology column the simulator stores.
	twin []int32

	// cur holds unicast messages deliverable this round; next collects
	// sends. Slot s occupies entries [(s&pageMask)*Bandwidth, …+counts[s])
	// of page s>>pageShift. Pages are allocated on first touch and
	// recycled through pagePool once their round is consumed (flip), so
	// the live page set tracks the two-round working set — O(activity)
	// memory, not O(m) — and pageBytes is its high-water: a fresh
	// allocation happens only when demand exceeds every page ever
	// allocated. Recycled pages are not zeroed; the slot counts gate
	// every read, so stale content is unreachable. See
	// Options.ArenaFraction.
	cur, next           []atomic.Pointer[[]Message]
	curCounts, nxCounts []uint16
	pageShift           uint
	pageMask            int
	pageBytes           atomic.Int64 // high-water bytes of simultaneously live pages
	poolMu              sync.Mutex
	pagePool            []*[]Message // recycled pages free for reuse

	// Compact broadcast arenas: a vertex whose sends this round are
	// exclusively Broadcast calls stores them once here (slot v*Bandwidth
	// + k) instead of deg(v) times in the unicast arena. The invariant —
	// at every round barrier a vertex has either compact broadcasts or
	// unicast slots, never both (Env.Send materializes pending compacts
	// first) — is what lets the gather and frontier paths treat the two
	// stores as disjoint. This is the difference between O(n) and O(m)
	// memory traffic for the broadcast-heavy phases (e.g. the phase-0
	// center announcement, where every vertex broadcasts at once).
	curBcast, nxBcast   []Message
	curBcastN, nxBcastN []uint16
	curBcastL, nxBcastL []int32
	curBcastSlots       int // sum of deg over curBcastL, for the dense test
	nxBcastSlots        int

	// curDirty/nxDirty list the slots with nonzero counts in cur/next, in
	// the deterministic order the sends were merged (ascending sender,
	// program send order within a sender). They are what makes flip,
	// Pending, and the per-round wake derivation O(activity) instead of
	// O(m·Bandwidth).
	curDirty, nxDirty []int32

	// active lists the not-halted vertices in ascending order — the exact
	// complement of the halted flags, maintained at round barriers.
	// frontier is the round's invocation list: active merged with the
	// woken mail destinations. mail lists this round's distinct mail
	// destinations (deduped via the mailStamp generation marks); inbox[v]
	// holds the ports on which v has deliverable messages, sorted before
	// dispatch.
	active    []int32
	frontier  []int32
	woken     []int32
	mail      []int32
	mailStamp []uint64
	stampGen  uint64
	inbox     [][]int32

	// roundSent accumulates the running round's sent-message count as the
	// per-scope send logs are merged; flip consumes it.
	roundSent  int64
	seqLog     sendLog   // sequential engine's (and Init's) send log
	seqEnv     Env       // sequential engine's reused vertex handle
	seqScratch []Inbound // sequential engine's gather buffer

	// denseGather flags a round where most slots carry messages: building
	// and sorting per-vertex inboxes would cost more than the dense port
	// probe, so gatherInbound probes ports directly instead. The flag is
	// a pure function of len(curDirty) and the broadcast slot total,
	// hence identical on every engine, and both gather paths produce the
	// identical recv slice.
	denseGather bool

	metrics Metrics
	halted  []bool
	round   int

	// The first violation in (round, vertex) order. Keeping the
	// lexicographic minimum (rather than whichever write wins the race)
	// makes the reported error identical on every engine.
	violMu         sync.Mutex
	firstViolation error
	violRound      int
	violVertex     int

	par *parallelShards // lazily built for EngineParallel
}

// New creates a simulator running progs[v] at vertex v. The construction
// is counted on the options' runtime (SimulatorsCreated), so tests can
// assert a caller reuses one simulator (via Reset) instead of
// constructing one per protocol step.
func New(g *graph.Graph, progs []Program, opts Options) (*Simulator, error) {
	if len(progs) != g.N() {
		return nil, fmt.Errorf("congest: %d programs for %d vertices", len(progs), g.N())
	}
	if opts.Bandwidth > MaxBandwidth {
		return nil, fmt.Errorf("congest: bandwidth %d exceeds maximum %d (per-slot counters are uint16)",
			opts.Bandwidth, MaxBandwidth)
	}
	opts = opts.withDefaults()
	opts.Runtime.NoteSimulator()
	s := &Simulator{g: g, opts: opts, progs: progs}
	n := g.N()
	nSlots := int(g.Offset(n))
	s.twin = make([]int32, nSlots)
	for v := 0; v < n; v++ {
		base := g.Offset(v)
		for p := 0; p < g.Degree(v); p++ {
			w := g.Neighbor(v, p)
			q := g.PortOf(w, v)
			s.twin[base+int32(p)] = g.Offset(w) + int32(q)
		}
	}
	b := opts.Bandwidth

	// Page geometry: 2^maxPageShift slots per page, shrunk on small
	// topologies so lazy allocation still has granularity to work with.
	shift := uint(maxPageShift)
	for shift > minPageShift && nSlots>>shift < 8 {
		shift--
	}
	s.pageShift = shift
	s.pageMask = 1<<shift - 1
	nPages := (nSlots + s.pageMask) >> shift
	s.cur = make([]atomic.Pointer[[]Message], nPages)
	s.next = make([]atomic.Pointer[[]Message], nPages)
	frac := opts.ArenaFraction
	if frac == 0 {
		frac = 1.0 / 64
	}
	if frac > 1 {
		frac = 1
	}
	if frac > 0 {
		pre := int(math.Ceil(frac * float64(nPages)))
		for i := 0; i < pre; i++ {
			s.allocPage(&s.cur[i])
			s.allocPage(&s.next[i])
		}
	}
	s.curCounts = make([]uint16, nSlots)
	s.nxCounts = make([]uint16, nSlots)
	s.curBcast = make([]Message, n*b)
	s.nxBcast = make([]Message, n*b)
	s.curBcastN = make([]uint16, n)
	s.nxBcastN = make([]uint16, n)
	s.halted = make([]bool, n)
	s.mailStamp = make([]uint64, n)
	s.inbox = make([][]int32, n)
	return s, nil
}

// NewUniform creates a simulator where every vertex runs factory(v).
func NewUniform(g *graph.Graph, factory func(v int) Program, opts Options) (*Simulator, error) {
	progs := make([]Program, g.N())
	for v := range progs {
		progs[v] = factory(v)
	}
	return New(g, progs, opts)
}

// allocPage installs a page at pp, reusing a recycled page when the
// pool has one and allocating fresh otherwise. First touches serialize
// on the pool lock — they are rare (at most one per newly touched page
// per round), so racing shard workers of different senders landing in
// one page agree on a single installation and a single accounting
// charge. A fresh page is made only when the pool is empty, which makes
// pageBytes the high-water of simultaneously live pages; the touched
// page set of every round and the pool level at every round boundary
// are pure functions of the execution, so the high-water — and thus
// ArenaBytes — is deterministic across engines and runs even though
// which worker allocates is racy. Recycled pages are not zeroed: slot
// counts gate every read, so stale content is unreachable.
func (s *Simulator) allocPage(pp *atomic.Pointer[[]Message]) *[]Message {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	if pg := pp.Load(); pg != nil {
		return pg // another worker installed it while we waited
	}
	var pg *[]Message
	if n := len(s.pagePool); n > 0 {
		pg = s.pagePool[n-1]
		s.pagePool[n-1] = nil
		s.pagePool = s.pagePool[:n-1]
	} else {
		fresh := make([]Message, (s.pageMask+1)*s.opts.Bandwidth)
		pg = &fresh
		s.pageBytes.Add(int64(len(fresh)) * msgBytes)
	}
	pp.Store(pg)
	return pg
}

// writeNext stores m as the k-th message of slot in the next-round arena.
func (s *Simulator) writeNext(slot, k int, m Message) {
	pp := &s.next[slot>>s.pageShift]
	pg := pp.Load()
	if pg == nil {
		pg = s.allocPage(pp)
	}
	(*pg)[(slot&s.pageMask)*s.opts.Bandwidth+k] = m
}

// curSlot returns the deliverable messages of slot (count from curCounts).
func (s *Simulator) curSlot(slot int) []Message {
	pg := s.cur[slot>>s.pageShift].Load()
	off := (slot & s.pageMask) * s.opts.Bandwidth
	return (*pg)[off : off+int(s.curCounts[slot])]
}

// Reset swaps in new per-vertex programs and rewinds the simulator to
// its pre-Init state while retaining every piece of graph-derived
// machinery: the twin table, the message arenas (including every lazily
// allocated page — the high-water is monotone), and the shard layout. A
// sequence of protocols on the same topology therefore pays the
// construction cost exactly once.
//
// Metrics, the round counter, the halted flags, any recorded violation,
// and any still-buffered messages are cleared: after Reset the
// simulator behaves exactly as a freshly constructed one (tested), so
// determinism is preserved — the new programs observe no trace of the
// previous run. Callers that must not lose in-flight messages silently
// should check Pending before resetting (protocols.Session does).
//
// Reset must not be called concurrently with Run; between runs the
// shared runtime's workers hold no reference to this simulator, so the
// next round's batch submission orders Reset's writes before any worker
// reads them.
func (s *Simulator) Reset(progs []Program) error {
	if len(progs) != s.g.N() {
		return fmt.Errorf("congest: %d programs for %d vertices", len(progs), s.g.N())
	}
	copy(s.progs, progs)
	s.reset()
	return nil
}

// ResetUniform is Reset with every vertex running factory(v). It writes
// into the retained program slice, so a reset allocates no per-vertex
// bookkeeping beyond the programs themselves.
func (s *Simulator) ResetUniform(factory func(v int) Program) {
	for v := range s.progs {
		s.progs[v] = factory(v)
	}
	s.reset()
}

func (s *Simulator) reset() {
	s.round = 0
	s.metrics = Metrics{}
	s.roundSent = 0
	s.denseGather = false
	// A dense rewind, deliberately: a panicking round can abort before
	// the barrier-time log merge, leaving send logs and inbox state the
	// incremental paths never observed. Reset is per-protocol, not
	// per-round, so O(n + slots) here buys unconditional correctness.
	// (stampGen is monotonic across resets so stale mailStamp marks can
	// never collide with a future round's generation. Retained pages are
	// not zeroed: a slot's messages are unreachable once its count is.)
	clear(s.halted)
	clear(s.curCounts)
	clear(s.nxCounts)
	clear(s.curBcastN)
	clear(s.nxBcastN)
	s.curBcastL = s.curBcastL[:0]
	s.nxBcastL = s.nxBcastL[:0]
	s.curBcastSlots, s.nxBcastSlots = 0, 0
	s.curDirty = s.curDirty[:0]
	s.nxDirty = s.nxDirty[:0]
	s.active = s.active[:0]
	s.frontier = s.frontier[:0]
	s.woken = s.woken[:0]
	s.mail = s.mail[:0]
	s.seqLog.reset()
	if s.par != nil {
		for _, st := range s.par.shards {
			st.log.reset()
		}
	}
	for v := range s.inbox {
		s.inbox[v] = s.inbox[v][:0]
	}
	s.violMu.Lock()
	s.firstViolation = nil
	s.violRound, s.violVertex = 0, 0
	s.violMu.Unlock()
	if s.par != nil {
		s.par.panicMu.Lock()
		s.par.panicked = nil
		s.par.panicVertex = 0
		s.par.panicMu.Unlock()
	}
}

// Pending returns the number of messages currently buffered for
// delivery in the next round, broken down by message kind. A compact
// broadcast counts once per incident edge, exactly as if it had been
// sent per port. After a protocol has consumed its full round schedule
// this should be zero: a nonzero count means the schedule was
// under-budgeted (kinds owned by the protocol) or a previous run on a
// reused simulator leaked traffic (foreign kinds). The map is nil when
// nothing is pending.
func (s *Simulator) Pending() (total int, byKind map[uint8]int) {
	for _, slot := range s.curDirty {
		if byKind == nil {
			byKind = make(map[uint8]int)
		}
		for _, m := range s.curSlot(int(slot)) {
			byKind[m.Kind]++
			total++
		}
	}
	b := s.opts.Bandwidth
	for _, u := range s.curBcastL {
		if byKind == nil {
			byKind = make(map[uint8]int)
		}
		deg := s.g.Degree(int(u))
		for k := 0; k < int(s.curBcastN[u]); k++ {
			byKind[s.curBcast[int(u)*b+k].Kind] += deg
			total += deg
		}
	}
	return total, byKind
}

// Metrics returns execution statistics since construction or the last
// Reset.
func (s *Simulator) Metrics() Metrics { return s.metrics }

// Round returns the number of rounds executed so far.
func (s *Simulator) Round() int { return s.round }

// Active returns the number of vertices that have not halted.
func (s *Simulator) Active() int { return len(s.active) }

// ArenaBytes returns the retained size of the simulator's message
// machinery: the allocated unicast arena pages, the compact broadcast
// arenas, the slot counters, and the twin table. Pages are allocated on
// first touch and retained, so the value is a measured high-water of
// actual traffic — it starts near the ArenaFraction preallocation and
// grows monotonically toward (but on sparse protocols far below) the
// worst-case nSlots×Bandwidth arena. The touched-slot set is a pure
// function of the execution, so the value is deterministic across
// engines and runs; long-running services use it as the per-build arena
// footprint when tracking high-water memory across heterogeneous jobs.
func (s *Simulator) ArenaBytes() int64 {
	arenas := s.pageBytes.Load()
	bcast := int64(len(s.curBcast)+len(s.nxBcast))*msgBytes +
		int64(len(s.curBcastN)+len(s.nxBcastN))*2
	counts := int64(len(s.curCounts)+len(s.nxCounts)) * 2
	tables := int64(len(s.twin)) * 4
	return arenas + bcast + counts + tables
}

// ArenaBytesWorstCase returns what ArenaBytes would be if every unicast
// arena page were allocated — the pre-scale-up fixed footprint
// (ArenaFraction >= 1 reproduces it). The measured-vs-worst-case ratio
// is the scale smoke test's acceptance criterion.
func (s *Simulator) ArenaBytesWorstCase() int64 {
	pages := int64(len(s.cur)+len(s.next)) * int64((s.pageMask+1)*s.opts.Bandwidth) * msgBytes
	return pages + s.ArenaBytes() - s.pageBytes.Load()
}

// Graph returns the underlying topology (read-only).
func (s *Simulator) Graph() *graph.Graph { return s.g }

// Program returns the program instance at vertex v, for extracting local
// results after a run.
func (s *Simulator) Program(v int) Program { return s.progs[v] }

// Env is a vertex's handle to the simulator: identity, the topology
// access permitted by the model, and message sending. An Env is only
// valid inside the Program callbacks it is passed to. Envs are owned by
// execution scopes (one per shard on the parallel engine, one total on
// the sequential engine), not by
// vertices: the engine points the Env at the current vertex before each
// callback, so n vertices cost O(scopes) handle state, and each scope's
// handle plus send log live on their own cache lines.
type Env struct {
	sim     *Simulator
	out     *sendLog // the owning scope's send log
	id      int
	base    int  // == g.Offset(id): first outbound slot
	sentUni bool // a unicast was sent in the current callback
}

// ID returns this vertex's identifier in [0, n).
func (e *Env) ID() int { return e.id }

// N returns the number of vertices (known to all vertices; paper §1.3.1).
func (e *Env) N() int { return e.sim.g.N() }

// Degree returns this vertex's degree.
func (e *Env) Degree() int { return e.sim.g.Degree(e.id) }

// NeighborID returns the ID of the neighbor on the given port. In CONGEST
// neighbors can exchange IDs in a single round; exposing them directly is
// the standard assumption and costs the algorithms nothing.
func (e *Env) NeighborID(port int) int { return e.sim.g.Neighbor(e.id, port) }

// Round returns the current round number (0 during Init).
func (e *Env) Round() int { return e.sim.round }

// Send transmits m over the given port; it is delivered next round. Send
// reports a violation error if the port is out of range or the per-edge
// bandwidth for this round is exhausted; the message is then dropped and
// the violation also fails the enclosing Run.
func (e *Env) Send(port int, m Message) error {
	if port < 0 || port >= e.Degree() {
		err := fmt.Errorf("%w: vertex %d port %d (degree %d)", ErrPort, e.id, port, e.Degree())
		e.sim.recordViolation(e.id, err)
		return err
	}
	s := e.sim
	if s.nxBcastN[e.id] > 0 {
		e.materializeBcast()
	}
	e.sentUni = true
	slot := e.base + port
	b := s.opts.Bandwidth
	if int(s.nxCounts[slot]) >= b {
		err := fmt.Errorf("%w: vertex %d port %d round %d (bandwidth %d)",
			ErrBandwidth, e.id, port, s.round, b)
		s.recordViolation(e.id, err)
		return err
	}
	if s.nxCounts[slot] == 0 {
		e.out.dirty = append(e.out.dirty, int32(slot))
	}
	s.writeNext(slot, int(s.nxCounts[slot]), m)
	s.nxCounts[slot]++
	return nil
}

// Broadcast sends m over every incident edge (one message per edge, which
// always fits a bandwidth-1 budget if nothing else is sent that round).
//
// A round whose sends are exclusively broadcasts — by far the dominant
// pattern in the protocols here — stores the message once per vertex in
// the compact broadcast arena rather than once per edge in the unicast
// arena: O(n) space and time instead of O(m) for a broadcast-all round.
// Mixing Send and Broadcast in one callback falls back to per-port
// expansion (in either order: a Send after a compact Broadcast first
// materializes it into the unicast slots), so the observable execution
// is identical to sending on every port individually — same delivery
// order, same bandwidth accounting, same violation errors.
func (e *Env) Broadcast(m Message) error {
	deg := e.Degree()
	if deg == 0 {
		return nil
	}
	s := e.sim
	if e.sentUni {
		for p := 0; p < deg; p++ {
			if err := e.Send(p, m); err != nil {
				return err
			}
		}
		return nil
	}
	b := s.opts.Bandwidth
	n := int(s.nxBcastN[e.id])
	if n >= b {
		// The per-port expansion would have tripped the bandwidth check
		// at port 0; report the identical violation.
		err := fmt.Errorf("%w: vertex %d port %d round %d (bandwidth %d)",
			ErrBandwidth, e.id, 0, s.round, b)
		s.recordViolation(e.id, err)
		return err
	}
	if n == 0 {
		e.out.bcast = append(e.out.bcast, int32(e.id))
	}
	s.nxBcast[e.id*b+n] = m
	s.nxBcastN[e.id]++
	return nil
}

// materializeBcast expands this vertex's pending compact broadcasts into
// its unicast slots, preserving send order (broadcasts were issued before
// the unicast that triggered the expansion). The slots are necessarily
// empty — compact broadcasts are only accepted while no unicast has been
// sent — and the vertex is necessarily the last entry of its scope's
// bcast log (it appended itself during this same callback, and only the
// scope running this callback appends to this log), so it is popped in
// O(1). Messages are charged at merge time via the dirty slots, exactly
// as if they had been per-port sends all along.
func (e *Env) materializeBcast() {
	s := e.sim
	cnt := int(s.nxBcastN[e.id])
	s.nxBcastN[e.id] = 0
	e.out.bcast = e.out.bcast[:len(e.out.bcast)-1]
	b := s.opts.Bandwidth
	deg := e.Degree()
	for p := 0; p < deg; p++ {
		slot := e.base + p
		e.out.dirty = append(e.out.dirty, int32(slot))
		for k := 0; k < cnt; k++ {
			s.writeNext(slot, k, s.nxBcast[e.id*b+k])
		}
		s.nxCounts[slot] = uint16(cnt)
	}
}

// Halt marks this vertex as idle: its Round method is not invoked again
// until a message arrives. Used for message-driven quiescence.
func (e *Env) Halt() { e.sim.halted[e.id] = true }

// recordViolation keeps the violation with the lowest (round, vertex);
// concurrent engines then report the same error the sequential engine
// would. Run returns at the end of the first violating round, so only
// violations of a single round (plus Init) ever compete.
func (s *Simulator) recordViolation(v int, err error) {
	s.violMu.Lock()
	if s.firstViolation == nil || s.round < s.violRound ||
		(s.round == s.violRound && v < s.violVertex) {
		s.firstViolation = err
		s.violRound, s.violVertex = s.round, v
	}
	s.violMu.Unlock()
}

func (s *Simulator) violation() error {
	s.violMu.Lock()
	defer s.violMu.Unlock()
	return s.firstViolation
}

// Run executes exactly rounds additional rounds (calling Init first if no
// round has run yet) and returns the first model violation, if any.
func (s *Simulator) Run(rounds int) error {
	return s.RunContext(context.Background(), rounds)
}

// RunContext is Run with cancellation: the context is checked at every
// round boundary, so a cancelled or expired context aborts the execution
// within one simulated round and returns ctx.Err(). Determinism is
// preserved by construction — rounds are atomic (a round either fully
// executes on every vertex or not at all), so cancellation can truncate
// an execution but never corrupt one. A cancelled simulator may be Reset
// and reused.
func (s *Simulator) RunContext(ctx context.Context, rounds int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.round == 0 {
		s.runInit()
	}
	for i := 0; i < rounds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.step()
		if err := s.violation(); err != nil {
			return err
		}
	}
	return s.violation()
}

// RunUntilQuiet executes rounds until no messages are in flight and every
// vertex has halted, up to maxRounds. It returns the number of rounds
// executed and the first violation, if any. If the budget runs out
// before quiescence the error is a *ErrBudgetExhausted carrying the
// pending-message histogram.
//
// Quiescence here is the message-driven kind: a protocol that acts on a
// precomputed round schedule must use Run with its schedule length.
func (s *Simulator) RunUntilQuiet(maxRounds int) (int, error) {
	return s.RunUntilQuietContext(context.Background(), maxRounds)
}

// RunUntilQuietContext is RunUntilQuiet with cancellation checked at
// every round boundary (see RunContext).
func (s *Simulator) RunUntilQuietContext(ctx context.Context, maxRounds int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.round == 0 {
		s.runInit()
	}
	start := s.round
	for i := 0; i < maxRounds; i++ {
		if s.quiet() {
			return s.round - start, s.violation()
		}
		if err := ctx.Err(); err != nil {
			return s.round - start, err
		}
		s.step()
		if err := s.violation(); err != nil {
			return s.round - start, err
		}
	}
	if err := s.violation(); err != nil {
		return s.round - start, err
	}
	if !s.quiet() {
		total, byKind := s.Pending()
		return s.round - start, &ErrBudgetExhausted{
			MaxRounds: maxRounds, Pending: total, ByKind: byKind, Active: len(s.active),
		}
	}
	return s.round - start, nil
}

// quiet is O(1): the dirty and broadcaster lists are empty exactly when
// no message is buffered, and the active list is empty exactly when
// every vertex has halted.
func (s *Simulator) quiet() bool {
	return len(s.curDirty) == 0 && len(s.curBcastL) == 0 && len(s.active) == 0
}

func (s *Simulator) runInit() {
	env := &s.seqEnv
	*env = Env{sim: s, out: &s.seqLog}
	for v := 0; v < s.g.N(); v++ {
		env.id = v
		env.base = int(s.g.Offset(v))
		env.sentUni = false
		s.progs[v].Init(env)
		s.collectLog(&s.seqLog)
	}
	s.active = s.active[:0]
	for v := 0; v < s.g.N(); v++ {
		if !s.halted[v] {
			s.active = append(s.active, int32(v))
		}
	}
	s.flip()
}

// step executes one round on the configured engine: derive the frontier
// from the buffered messages and the active list, dispatch Round over
// exactly those vertices, then merge the per-scope send logs and compact
// the active list at the barrier. Total cost is O(frontier + messages),
// independent of n and m.
func (s *Simulator) step() {
	s.round++
	s.buildFrontier()
	switch s.opts.Engine {
	case EngineParallel:
		s.stepParallel()
	default:
		s.stepSequential()
	}
	s.finishRound()
	s.flip()
}

// buildFrontier derives the round's invocation list. Every dirty slot
// names its destination vertex (the CSR adjacency entry at the slot
// index) and port (its twin's offset); every compact broadcaster's
// adjacency range does the same for its neighbors. Destinations are
// deduped with a generation stamp into the mail list, their inboxes
// filled with the hit ports (sorted — the per-vertex hits are few), and
// halted destinations are woken. The broadcast-or-unicast invariant
// guarantees the two walks never hit the same port, so no cross-walk
// dedupe is needed. The frontier is the merge of the two ascending
// disjoint lists: still-active vertices and the woken.
//
// When at least half the slots carry messages the round is effectively
// dense: the inboxes are skipped (gatherInbound probes ports directly)
// and only the wake/mail derivation runs, so dense workloads pay the
// same per-round cost as a dense stepper.
func (s *Simulator) buildFrontier() {
	s.stampGen++
	s.denseGather = 2*(len(s.curDirty)+s.curBcastSlots) >= len(s.twin)
	for _, slot := range s.curDirty {
		d := s.g.AdjAt(int(slot))
		if s.mailStamp[d] != s.stampGen {
			s.mailStamp[d] = s.stampGen
			s.mail = append(s.mail, d)
		}
		if !s.denseGather {
			s.inbox[d] = append(s.inbox[d], s.twin[slot]-s.g.Offset(int(d)))
		}
	}
	for _, u := range s.curBcastL {
		base := int(s.g.Offset(int(u)))
		for i, deg := 0, s.g.Degree(int(u)); i < deg; i++ {
			d := s.g.AdjAt(base + i)
			if s.mailStamp[d] != s.stampGen {
				s.mailStamp[d] = s.stampGen
				s.mail = append(s.mail, d)
			}
			if !s.denseGather {
				s.inbox[d] = append(s.inbox[d], s.twin[base+i]-s.g.Offset(int(d)))
			}
		}
	}
	s.woken = s.woken[:0]
	for _, d := range s.mail {
		if !s.denseGather {
			slices.Sort(s.inbox[d])
		}
		if s.halted[d] {
			s.halted[d] = false
			s.woken = append(s.woken, d)
		}
	}
	slices.Sort(s.woken)
	s.frontier = s.frontier[:0]
	i, j := 0, 0
	for i < len(s.active) && j < len(s.woken) {
		if s.active[i] < s.woken[j] {
			s.frontier = append(s.frontier, s.active[i])
			i++
		} else {
			s.frontier = append(s.frontier, s.woken[j])
			j++
		}
	}
	s.frontier = append(s.frontier, s.active[i:]...)
	s.frontier = append(s.frontier, s.woken[j:]...)
}

// collectLog appends one scope's send log to the global next-round lists
// and charges its messages to the round's traffic (a compact broadcast
// counts deg messages per copy, identical to its per-port expansion).
// The engines call it in ascending frontier order, so the merged lists
// are engine-independent.
func (s *Simulator) collectLog(l *sendLog) {
	if len(l.dirty) > 0 {
		for _, slot := range l.dirty {
			s.roundSent += int64(s.nxCounts[slot])
		}
		s.nxDirty = append(s.nxDirty, l.dirty...)
		l.dirty = l.dirty[:0]
	}
	if len(l.bcast) > 0 {
		for _, u := range l.bcast {
			deg := s.g.Degree(int(u))
			s.roundSent += int64(deg) * int64(s.nxBcastN[u])
			s.nxBcastSlots += deg
		}
		s.nxBcastL = append(s.nxBcastL, l.bcast...)
		l.bcast = l.bcast[:0]
	}
}

// finishRound runs on the coordinator after the round barrier and the
// engine's log merge: drop the vertices that halted during the round
// from the active list and clear the round's inbox state — each step
// O(activity).
func (s *Simulator) finishRound() {
	s.active = s.active[:0]
	for _, v := range s.frontier {
		if !s.halted[v] {
			s.active = append(s.active, v)
		}
	}
	if !s.denseGather {
		for _, d := range s.mail {
			s.inbox[d] = s.inbox[d][:0]
		}
	}
	s.mail = s.mail[:0]
}

// flip swaps the message buffers after a round: what was sent becomes
// deliverable, and the previous round's delivered slots and broadcasters
// — exactly the ones the outgoing lists name — are cleared. Metrics are
// updated here, from the traffic counter the log merge maintained, so
// all engines share the accounting.
func (s *Simulator) flip() {
	sent := s.roundSent
	s.roundSent = 0
	s.metrics.Messages += sent
	if sent > s.metrics.MaxRoundTraffic {
		s.metrics.MaxRoundTraffic = sent
	}
	s.metrics.Rounds = s.round
	s.cur, s.next = s.next, s.cur
	s.curCounts, s.nxCounts = s.nxCounts, s.curCounts
	s.curDirty, s.nxDirty = s.nxDirty, s.curDirty
	s.curBcast, s.nxBcast = s.nxBcast, s.curBcast
	s.curBcastN, s.nxBcastN = s.nxBcastN, s.curBcastN
	s.curBcastL, s.nxBcastL = s.nxBcastL, s.curBcastL
	s.curBcastSlots, s.nxBcastSlots = s.nxBcastSlots, 0
	// The consumed arena's touched pages go back to the pool: the live
	// page set stays proportional to the two-round working set instead
	// of accumulating the whole run's touched-slot union. The pool lock
	// is uncontended here (no round is executing during flip); it only
	// orders these writes against the next round's first touches.
	s.poolMu.Lock()
	for _, slot := range s.nxDirty {
		s.nxCounts[slot] = 0
		pp := &s.next[int(slot)>>s.pageShift]
		if pg := pp.Load(); pg != nil {
			s.pagePool = append(s.pagePool, pg)
			pp.Store(nil)
		}
	}
	s.poolMu.Unlock()
	s.nxDirty = s.nxDirty[:0]
	for _, u := range s.nxBcastL {
		s.nxBcastN[u] = 0
	}
	s.nxBcastL = s.nxBcastL[:0]
}

// gatherInbound collects vertex v's deliverable messages in the
// configured delivery order, driven by v's inbox — the ports the dirty
// slots and broadcasts hit, pre-sorted by buildFrontier — rather than
// probing every port. In dense rounds (denseGather) the inboxes were
// skipped and the ports are probed directly; both paths yield the
// identical slice, since a probed port without messages contributes
// nothing. Per port, the sender's compact broadcasts and the slot's
// unicasts are mutually exclusive (the materialization invariant), so
// the compact store is checked first and the slot only read on miss.
// scratch is reused across calls to avoid per-round allocation.
func (s *Simulator) gatherInbound(v int, scratch []Inbound) []Inbound {
	recv := scratch[:0]
	b := s.opts.Bandwidth
	base := int(s.g.Offset(v))
	appendPort := func(p int) {
		if u := int(s.g.AdjAt(base + p)); s.curBcastN[u] > 0 {
			for k := 0; k < int(s.curBcastN[u]); k++ {
				recv = append(recv, Inbound{Port: p, Msg: s.curBcast[u*b+k]})
			}
			return
		}
		src := int(s.twin[base+p]) // slot of the edge (neighbor -> v)
		if s.curCounts[src] > 0 {
			for _, m := range s.curSlot(src) {
				recv = append(recv, Inbound{Port: p, Msg: m})
			}
		}
	}
	if s.denseGather {
		deg := s.g.Degree(v)
		if s.opts.Delivery == DeliverPortDescending {
			for p := deg - 1; p >= 0; p-- {
				appendPort(p)
			}
		} else {
			for p := 0; p < deg; p++ {
				appendPort(p)
			}
		}
		return recv
	}
	ports := s.inbox[v]
	if s.opts.Delivery == DeliverPortDescending {
		for i := len(ports) - 1; i >= 0; i-- {
			appendPort(int(ports[i]))
		}
	} else {
		for _, p := range ports {
			appendPort(int(p))
		}
	}
	return recv
}

func (s *Simulator) stepSequential() {
	scratch := s.seqScratch
	env := &s.seqEnv
	*env = Env{sim: s, out: &s.seqLog}
	for _, v := range s.frontier {
		recv := s.gatherInbound(int(v), scratch)
		env.id = int(v)
		env.base = int(s.g.Offset(int(v)))
		env.sentUni = false
		s.progs[v].Round(env, recv)
		scratch = recv[:0]
		s.collectLog(&s.seqLog)
	}
	s.seqScratch = scratch
}
