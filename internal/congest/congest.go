// Package congest simulates the synchronous CONGEST model of distributed
// computation (Peleg 2000; paper §1.3.1): one processor per graph vertex,
// communication with graph neighbors in synchronous rounds, and messages
// limited to O(1) words per edge per round.
//
// One stepper executes node programs. Each round it runs the frontier
// vertices either inline on the calling goroutine or, when the round
// carries enough work, as shards fanned out to the shared execution
// runtime (package sched), which any number of concurrent simulators
// share. The choice is the simulator's, made per round (fansOut), and
// the shard layout never changes the execution: every layout gives the
// bit-identical run (tested), so round counts measured here are the
// paper's "running time". See parallel.go for the determinism argument.
//
// Bandwidth is enforced: a node may send at most one message of
// MessageWords words over each incident edge per round, the paper's
// model. Violations are reported as errors, never silently dropped, so
// an algorithm that would not be a valid CONGEST algorithm cannot
// produce a result that looks valid.
//
// Messages are stored once, by the sender: a broadcast in the compact
// O(n) arena, a unicast as an entry of the round's message list, which
// a per-slot index table locates. A receiving program ranges over
// Env.Recv, which reads each message in place from that store, so
// delivery copies nothing per message beyond the value it yields, and
// whose loop inlines into the program's Round, so it calls nothing per
// message either.
//
// A round calls only the vertices that have work: those not halted,
// those with mail, and those whose alarm names the round. A program on
// a fixed schedule calls Env.SleepUntil to skip the rounds in which it
// would only wait for mail; mail still wakes it at once.
package congest

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"strings"
	"sync"
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

// Program is the per-vertex state machine. Each vertex runs its own
// Program instance.
//
// Init is called once before round 1; messages sent from Init are
// delivered in round 1. Round is called once per round r >= 1; inside it,
// env.Recv yields the messages sent to this vertex in the previous round
// (or Init), each with the local port it arrived on. Port p of vertex v
// corresponds to v's p-th neighbor in sorted adjacency order (the standard
// port-numbering model). Messages sent during Round(r) are delivered at
// Round(r+1).
type Program interface {
	Init(env *Env)
	Round(env *Env)
}

// Engine once selected the simulator's stepper.
//
// Deprecated: the simulator has one stepper and reads no Engine value;
// Engine and EngineParallel remain so existing callers still compile.
type Engine int

// EngineParallel names the one stepper.
//
// Deprecated: see Engine.
const EngineParallel Engine = 2

// DeliveryOrder controls the order in which Env.Recv yields a round's
// messages. Correct CONGEST algorithms must not depend on arrival order
// within a round; running the test suite under DeliverPortDescending is
// a cheap adversarial-scheduling check.
type DeliveryOrder int

const (
	// DeliverPortAscending presents messages sorted by arrival port
	// (the default).
	DeliverPortAscending DeliveryOrder = iota
	// DeliverPortDescending presents messages in reverse port order.
	DeliverPortDescending
)

// Options configure a Simulator. The zero value selects ascending
// delivery and the process-wide runtime.
type Options struct {
	Delivery DeliveryOrder // defaults to DeliverPortAscending
	// Runtime is the shared execution runtime fanned-out rounds submit
	// their shard batches to; its worker count bounds the per-round shard
	// fan-out, and it hosts the per-runtime simulator counter. Nil
	// selects the process-wide sched.Default(). Supply a private runtime
	// (sched.New) to isolate pool lifecycle or counters — e.g. batch
	// builders that must release every goroutine on Close. The worker
	// count never changes the execution, only its scheduling.
	Runtime *sched.Runtime
}

func (o Options) withDefaults() Options {
	if o.Runtime == nil {
		o.Runtime = sched.Default()
	}
	return o
}

// Metrics aggregates execution statistics. Rounds counts executed rounds
// (Init is not a round). Messages counts sent messages. Invocations
// counts Round calls, the sum of the rounds' frontier lengths; like the
// others it is a pure function of the execution.
type Metrics struct {
	Rounds          int
	Messages        int64
	MaxRoundTraffic int64 // most messages sent in any single round
	Invocations     int64
}

// ErrBandwidth is returned (wrapped) when a program sends a second
// message over one edge in one round.
var ErrBandwidth = errors.New("congest: bandwidth exceeded")

// ErrPort is returned (wrapped) when a program sends on an invalid port.
var ErrPort = errors.New("congest: invalid port")

// ErrBudgetExhausted reports that RunUntilQuietContext consumed its
// entire round budget without reaching quiescence. It carries the in-flight
// message histogram and the count of still-active vertices, so a stuck
// message-driven protocol (e.g. a path climb that never drains) can be
// diagnosed from the error alone instead of a debugger. Retrieve it with
// errors.As.
type ErrBudgetExhausted struct {
	MaxRounds int           // the exhausted budget
	Pending   int           // messages still in flight
	ByKind    map[uint8]int // pending messages by kind
	Active    int           // vertices running or asleep with an alarm (Simulator.Active)
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

// uniMsg is one unicast of a round's message list: the directed-edge
// slot it travels on and the message's fields. The slot fills the
// padding after the kind, so an entry is no larger than a Message.
type uniMsg struct {
	kind  uint8
	slot  int32
	words [MessageWords]int64
}

// msgBytes and uniBytes are the in-memory sizes of one Message and of
// one unicast list entry; they are equal.
const (
	msgBytes = int64(unsafe.Sizeof(Message{}))
	uniBytes = int64(unsafe.Sizeof(uniMsg{}))
)

// sendLog collects one execution scope's outbound effects for the round:
// the unicasts it sent (in program send order), the vertices that issued
// compact broadcasts and those that set an alarm. Every
// concurrently-running scope (one per shard) has its own log, so the
// send path needs no synchronization, and the coordinator merges logs in
// ascending frontier order at the barrier, making the global lists
// independent of the shard layout.
type sendLog struct {
	uni   []uniMsg // unicasts sent this round
	bcast []int32  // vertices with pending compact broadcasts
	sleep []int32  // vertices that set an alarm (SleepUntil)
}

func (l *sendLog) reset() {
	l.uni = l.uni[:0]
	l.bcast = l.bcast[:0]
	l.sleep = l.sleep[:0]
}

// Simulator executes one Program instance per vertex of a graph.
//
// Round execution is frontier-driven: the per-round cost is
// O(frontier + messages), not O(n + m). The simulator maintains a
// unicast list (each message with the directed-edge slot it travels
// on), a broadcaster list (vertices whose round output is a
// whole-neighborhood broadcast, stored once instead of once per edge),
// and an active list (the vertices that have not halted); each round it
// derives the frontier — active vertices plus the halted destinations of
// unicasts and broadcasts — and only those vertices run. See
// docs/ARCHITECTURE.md, "Frontier scheduling", for the determinism
// argument.
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

	// curUni lists the unicasts deliverable this round and nxUni collects
	// the next round's, each in the order the send logs were merged
	// (ascending sender, program send order within a sender). A slot
	// carries at most one message per round (the model's one message per
	// edge per round), so the lists are O(traffic), not O(m). at[s] is 1 +
	// the index in curUni of slot s's message (0: none), filed by flip;
	// sent[s] flags a slot that already carries a message for the next
	// round, for the bandwidth check. uniHigh is the most unicasts the
	// two lists have held at once, the high-water ArenaBytes reports.
	curUni, nxUni []uniMsg
	at            []int32
	sent          []bool
	uniHigh       int

	// Compact broadcast arenas: a vertex whose one send this round is a
	// Broadcast stores it once here (entry v, flagged in curBcastOn/
	// nxBcastOn) instead of deg(v) times in the unicast list. The
	// invariant — at every round barrier a vertex has either a compact
	// broadcast or unicasts, never both (a Send after a Broadcast
	// is a violation on its port) — is what lets the gather and frontier
	// paths treat the two stores as disjoint. This is the difference
	// between O(n) and O(m) memory traffic for the broadcast-heavy phases
	// (e.g. the phase-0 center announcement, where every vertex
	// broadcasts at once).
	curBcast, nxBcast     []Message
	curBcastOn, nxBcastOn []bool
	curBcastL, nxBcastL   []int32
	curBcastSlots         int // sum of deg over curBcastL, for the dense test
	nxBcastSlots          int

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
	roundSent int64

	// gather is how buildFrontier prepared the round (see the gather*
	// constants). Every mode but gatherInbox marks a round where most
	// slots carry messages: building and sorting per-vertex inboxes would
	// cost more than the dense port probe, so Recv probes ports directly
	// instead. The mode is a pure function of the message lists, the
	// active list and the alarms, hence independent of the shard layout,
	// and every mode yields the identical sequence.
	gather uint8

	// Alarms (Env.SleepUntil). wakeAt[v] is the round a halted vertex's
	// pending alarm wakes it at (0: none), and sleepers counts the pending
	// alarms. alarms[r] lists the vertices that named round r when they
	// set their alarm, merged from the send logs; an entry whose vertex
	// has since woken or re-armed no longer matches wakeAt and is skipped.
	// spare keeps a fired bucket's array for the next new bucket.
	wakeAt   []int
	sleepers int
	alarms   map[int][]int32
	spare    []int32

	metrics Metrics
	halted  []bool
	round   int

	// The first violation in (round, vertex) order. Keeping the
	// lexicographic minimum (rather than whichever write wins the race)
	// makes the reported error identical on every shard layout.
	violMu         sync.Mutex
	firstViolation error
	violRound      int
	violVertex     int

	// shards holds each execution scope's send log and vertex handle,
	// grown on demand; shards[0] also serves Init and every inline round.
	// The panic fields keep a round's lowest panicking vertex (see
	// recordPanic).
	shards      []*shardState
	panicMu     sync.Mutex
	panicVertex int
	panicked    any
}

// New creates a simulator running progs[v] at vertex v. The construction
// is counted on the options' runtime (SimulatorsCreated), so tests can
// assert a caller reuses one simulator (via Reset) instead of
// constructing one per protocol step.
func New(g *graph.Graph, progs []Program, opts Options) (*Simulator, error) {
	if len(progs) != g.N() {
		return nil, fmt.Errorf("congest: %d programs for %d vertices", len(progs), g.N())
	}
	opts = opts.withDefaults()
	opts.Runtime.NoteSimulator()
	s := &Simulator{g: g, opts: opts, progs: progs, shards: []*shardState{{}}}
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
	s.at = make([]int32, nSlots)
	s.sent = make([]bool, nSlots)
	s.curBcast = make([]Message, n)
	s.nxBcast = make([]Message, n)
	s.curBcastOn = make([]bool, n)
	s.nxBcastOn = make([]bool, n)
	s.halted = make([]bool, n)
	s.wakeAt = make([]int, n)
	s.alarms = make(map[int][]int32)
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

// Reset swaps in new per-vertex programs and rewinds the simulator to
// its pre-Init state while retaining every piece of graph-derived
// machinery: the twin table, the message stores (the unicast lists keep
// their capacity, and their high-water is monotone), and the shard
// layout. A sequence of protocols on the same topology therefore pays
// the construction cost exactly once.
//
// Metrics, the round counter, the halted flags, any recorded violation,
// and any still-buffered messages are cleared: after Reset the
// simulator behaves exactly as a freshly constructed one (tested), so
// determinism is preserved — the new programs observe no trace of the
// previous run. Callers that must not lose in-flight messages silently
// should check Pending before resetting (protocols.Session does).
//
// Reset must not be called concurrently with a run; between runs the
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
	s.gather = gatherInbox
	// A dense rewind, deliberately: a panicking round can abort before
	// the barrier-time log merge, leaving send logs, sent flags and inbox
	// state the incremental paths never observed. Reset is per-protocol,
	// not per-round, so O(n + slots) here buys unconditional correctness.
	// (stampGen is monotonic across resets so stale mailStamp marks can
	// never collide with a future round's generation.)
	clear(s.halted)
	clear(s.wakeAt)
	clear(s.alarms)
	s.sleepers = 0
	clear(s.at)
	clear(s.sent)
	s.curUni = s.curUni[:0]
	s.nxUni = s.nxUni[:0]
	clear(s.curBcastOn)
	clear(s.nxBcastOn)
	s.curBcastL = s.curBcastL[:0]
	s.nxBcastL = s.nxBcastL[:0]
	s.curBcastSlots, s.nxBcastSlots = 0, 0
	s.active = s.active[:0]
	s.frontier = s.frontier[:0]
	s.woken = s.woken[:0]
	s.mail = s.mail[:0]
	for _, st := range s.shards {
		st.log.reset()
	}
	for v := range s.inbox {
		s.inbox[v] = s.inbox[v][:0]
	}
	s.violMu.Lock()
	s.firstViolation = nil
	s.violRound, s.violVertex = 0, 0
	s.violMu.Unlock()
	s.panicMu.Lock()
	s.panicked = nil
	s.panicVertex = 0
	s.panicMu.Unlock()
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
	if len(s.curUni) == 0 && len(s.curBcastL) == 0 {
		return 0, nil
	}
	byKind = make(map[uint8]int)
	for _, u := range s.curUni {
		byKind[u.kind]++
	}
	for _, u := range s.curBcastL {
		byKind[s.curBcast[u].Kind] += s.g.Degree(int(u))
	}
	return len(s.curUni) + s.curBcastSlots, byKind
}

// Metrics returns execution statistics since construction or the last
// Reset.
func (s *Simulator) Metrics() Metrics { return s.metrics }

// Round returns the number of rounds executed so far.
func (s *Simulator) Round() int { return s.round }

// Active returns the number of vertices that still have work of their
// own: those that have not halted and those asleep with an alarm pending
// (SleepUntil).
func (s *Simulator) Active() int { return len(s.active) + s.sleepers }

// ArenaBytes returns the size of the simulator's message machinery: the
// twin, at and sent slot tables, the compact broadcast arenas, and the
// most unicast list entries held at once — a round's delivered unicasts
// plus those sent for the next round, the high-water over the run. A new
// simulator holds no unicast entry, and on sparse protocols the
// high-water stays far below one message per slot. The figure counts
// entries, not the capacity behind them, and leaves out:
//   - the shard send logs of a fanned-out round, which hold at most one
//     more copy of that round's unicasts until the barrier merges them;
//   - the spare capacity of the arrays the send logs and the two lists
//     rotate: each keeps the largest round it held, and grows to that
//     round or to double its capacity, so it can hold up to twice the
//     entries it was last grown for.
//
// The unicast count of every round is a pure function of the execution,
// so the value depends only on the traffic: it is identical across shard
// layouts and runs, and long-running services use it as the per-build
// arena footprint when tracking high-water memory across heterogeneous
// jobs.
func (s *Simulator) ArenaBytes() int64 {
	bcast := int64(len(s.curBcast)+len(s.nxBcast))*msgBytes +
		int64(len(s.curBcastOn)+len(s.nxBcastOn))
	tables := int64(len(s.twin)+len(s.at))*4 + int64(len(s.sent))
	return bcast + tables + int64(s.uniHigh)*uniBytes
}

// ArenaBytesWorstCase returns what ArenaBytes would be if two
// consecutive rounds carried a unicast on every slot — the footprint of
// a one-message-per-slot arena for a round and the next (a list entry is
// the size of a Message). The measured-vs-worst-case ratio is the scale
// smoke test's acceptance criterion.
func (s *Simulator) ArenaBytesWorstCase() int64 {
	return s.ArenaBytes() + (2*int64(len(s.twin))-int64(s.uniHigh))*uniBytes
}

// Graph returns the underlying topology (read-only).
func (s *Simulator) Graph() *graph.Graph { return s.g }

// Program returns the program instance at vertex v, for extracting local
// results after a run.
func (s *Simulator) Program(v int) Program { return s.progs[v] }

// Env is a vertex's handle to the simulator: identity, the topology
// access permitted by the model, and message receiving and sending. An
// Env is only valid inside the Program callbacks it is passed to. Envs
// are owned by execution scopes (one per shard), not by vertices: the
// stepper points the Env at the current vertex before each callback, so n
// vertices cost O(scopes) handle state, and each scope's handle plus
// send log live on their own cache lines.
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

// Recv yields the messages delivered to this vertex this round as
// (arrival port, message) pairs, in the configured delivery order. Each
// message is read in place from the sender's compact broadcast or from
// the round's unicast list; nothing is copied ahead of the loop. The
// sequence is valid only inside the Round callback: it may be ranged any
// number of times there (the delivered messages do not change while the
// round runs, sends go to the next round) and stopped early, and during
// Init it is empty.
//
// The loop is driven by the vertex's inbox — the ports the unicasts and
// broadcasts hit, pre-sorted by buildFrontier — rather than probing
// every port. In dense rounds the inboxes were skipped and the loop
// probes every port straight off the neighbor list and twin run; both
// paths yield the identical sequence, since a probed port without a
// message contributes nothing. Per port, the sender's compact
// broadcast and the slot's unicast are mutually exclusive (the
// broadcast-or-unicast invariant), so the compact store is checked first
// and the slot's at entry only read on miss. The loop lives in the
// returned literal itself, not in a method it calls: Go inlines a
// literal that is called once under a much larger budget, so the literal
// and each program's range body inline into Round and a message costs no
// call.
func (e *Env) Recv() iter.Seq2[int, Message] {
	return func(yield func(int, Message) bool) {
		s, v := e.sim, e.id
		dense := s.gather != gatherInbox
		ports := s.inbox[v]
		n := len(ports)
		if dense {
			n = s.g.Degree(v)
		}
		if n == 0 {
			return
		}
		nbrs := s.g.Neighbors(v)
		twin := s.twin[e.base : e.base+len(nbrs)] // slots of the edges (neighbor -> v)
		bcast, bcastOn, at, uni := s.curBcast, s.curBcastOn, s.at, s.curUni
		i, end, step := 0, n, 1
		if s.opts.Delivery == DeliverPortDescending {
			i, end, step = n-1, -1, -1
		}
		for ; i != end; i += step {
			p := i
			if !dense {
				p = int(ports[i])
			}
			if u := nbrs[p]; bcastOn[u] {
				if !yield(p, bcast[u]) {
					return
				}
			} else if a := at[twin[p]]; a != 0 {
				if u := &uni[a-1]; !yield(p, Message{Kind: u.kind, Words: u.words}) {
					return
				}
			}
		}
	}
}

// Send transmits m over the given port; it is delivered next round. The
// message goes into the scope's send log and the port's sent flag is
// set. Send reports a violation error if the port is out of range or
// already carries a message this round (from a Send or a Broadcast); the
// message is then dropped and the violation also fails the enclosing run.
func (e *Env) Send(port int, m Message) error {
	if port < 0 || port >= e.Degree() {
		err := fmt.Errorf("%w: vertex %d port %d (degree %d)", ErrPort, e.id, port, e.Degree())
		e.sim.recordViolation(e.id, err)
		return err
	}
	s := e.sim
	e.sentUni = true
	slot := e.base + port
	if s.sent[slot] || s.nxBcastOn[e.id] {
		return e.bandwidthViolation(port)
	}
	s.sent[slot] = true
	if len(e.out.uni) == cap(e.out.uni) {
		// Double: a round that unicasts on most slots then leaves about
		// its own size in outgrown arrays, where append's 1.25× steps
		// leave about four times that.
		e.out.uni = slices.Grow(e.out.uni, len(e.out.uni)+1)
	}
	e.out.uni = append(e.out.uni, uniMsg{m.Kind, int32(slot), m.Words})
	return nil
}

// Broadcast sends m over every incident edge (one message per edge, which
// fits the budget if nothing else is sent that round).
//
// A round whose one send is a broadcast — by far the dominant pattern in
// the protocols here — stores the message once per vertex in the compact
// broadcast arena rather than once per edge in the unicast list: O(n)
// space and time instead of O(m) for a broadcast-all round. A Broadcast
// after a Send falls back to per-port expansion, and a Send after a
// Broadcast finds its port taken, so the observable execution is
// identical to sending on every port individually — same delivery
// order, same accounting, same violation errors.
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
	if s.nxBcastOn[e.id] {
		// The per-port expansion would have tripped the check at port 0.
		return e.bandwidthViolation(0)
	}
	e.out.bcast = append(e.out.bcast, int32(e.id))
	s.nxBcast[e.id] = m
	s.nxBcastOn[e.id] = true
	return nil
}

// bandwidthViolation records and returns a second send on port in the
// current round.
func (e *Env) bandwidthViolation(port int) error {
	err := fmt.Errorf("%w: vertex %d port %d round %d", ErrBandwidth, e.id, port, e.sim.round)
	e.sim.recordViolation(e.id, err)
	return err
}

// Halt marks this vertex as idle: its Round method is not invoked again
// until a message arrives. Used for message-driven quiescence.
func (e *Env) Halt() { e.sim.halted[e.id] = true }

// SleepUntil halts this vertex and sets an alarm: its Round method runs
// again at round r or at the first round that delivers it a message,
// whichever comes first, and that run clears the alarm. An r at or
// before the next round wakes it next round. A second SleepUntil in the
// same callback replaces the alarm; a Halt keeps it. A vertex that acts
// on a fixed schedule sleeps through the rounds where it would only wait
// for mail, so those rounds do not call it.
func (e *Env) SleepUntil(r int) {
	s := e.sim
	s.halted[e.id] = true
	if s.wakeAt[e.id] == 0 {
		e.out.sleep = append(e.out.sleep, int32(e.id))
	}
	s.wakeAt[e.id] = max(r, s.round+1)
}

// recordViolation keeps the violation with the lowest (round, vertex),
// so every shard layout reports the error a one-shard round would. A run
// returns at the end of the first violating round, so only violations of
// a single round (plus Init) ever compete.
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

// RunContext executes exactly rounds additional rounds (calling Init
// first if no round has run yet) and returns the first model violation,
// if any. The context is checked at every round boundary, so a cancelled
// or expired context aborts the execution within one simulated round and
// returns ctx.Err(). Determinism is preserved by construction — rounds
// are atomic (a round either fully executes on every vertex or not at
// all), so cancellation can truncate an execution but never corrupt one.
// A cancelled simulator may be Reset and reused.
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

// RunUntilQuietContext executes rounds until no messages are in flight,
// every vertex has halted and no alarm is pending, up to maxRounds,
// checking the context at every round boundary (see RunContext). It
// returns the number of rounds executed and the first violation, if any.
// If the budget runs out before quiescence the error is a
// *ErrBudgetExhausted carrying the pending-message histogram.
//
// Quiescence here is the message-driven kind: a protocol that acts on a
// precomputed round schedule must use RunContext with its schedule
// length.
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
			MaxRounds: maxRounds, Pending: total, ByKind: byKind, Active: s.Active(),
		}
	}
	return s.round - start, nil
}

// quiet is O(1): the unicast and broadcaster lists are empty exactly when
// no message is buffered, the active list is empty exactly when every
// vertex has halted, and sleepers counts the pending alarms.
func (s *Simulator) quiet() bool {
	return len(s.curUni) == 0 && len(s.curBcastL) == 0 && len(s.active) == 0 && s.sleepers == 0
}

// runInit calls every vertex's Init through shard 0's scope, on the
// calling goroutine, so a panicking Init propagates its raw value.
func (s *Simulator) runInit() {
	st := s.shards[0]
	env := &st.env
	*env = Env{sim: s, out: &st.log}
	for v := 0; v < s.g.N(); v++ {
		env.id = v
		env.base = int(s.g.Offset(v))
		env.sentUni = false
		s.progs[v].Init(env)
	}
	s.collectLog(&st.log, len(st.log.uni))
	s.active = s.active[:0]
	for v := 0; v < s.g.N(); v++ {
		if !s.halted[v] {
			s.active = append(s.active, int32(v))
		}
	}
	s.flip()
}

// step executes one round: derive the frontier from the buffered
// messages and the active list, run Round over exactly those vertices
// (runFrontier), then merge the per-scope send logs and compact the
// active list at the barrier. Total cost is O(frontier + messages),
// independent of n and m.
func (s *Simulator) step() {
	s.round++
	s.buildFrontier()
	s.metrics.Invocations += int64(len(s.frontier))
	s.runFrontier()
	s.finishRound()
	s.flip()
}

// Gather modes: how buildFrontier prepared a round and found the
// halted vertices to wake.
const (
	gatherInbox uint8 = iota // sparse: mail walked, inboxes built
	gatherProbe              // dense: the halted vertices' ports probed
	gatherAwake              // dense: no vertex left halted, nothing to wake
)

// buildFrontier derives the round's invocation list. It first fires the
// round's alarms. Then every unicast's slot names its destination vertex
// (the CSR adjacency entry at the slot index) and port (its twin's
// offset); every compact broadcaster's adjacency range does the same for
// its neighbors. Destinations are deduped with a generation stamp into
// the mail list, their inboxes filled with the hit ports (sorted — the
// per-vertex hits are few), and halted destinations are woken. The
// broadcast-or-unicast invariant guarantees the two walks never hit the
// same port, so no cross-walk dedupe is needed. The frontier is the
// merge of the two ascending disjoint lists: still-active vertices and
// the woken.
//
// When at least half the slots carry messages the round is effectively
// dense: the inboxes are skipped (Recv probes ports directly) and the
// serial once-per-message walk with them. If the alarms left no vertex
// halted there is nothing to wake (gatherAwake). Otherwise each halted
// vertex's ports are probed for mail, stopping at the first hit
// (gatherProbe): O(n + Σ deg of the halted) at worst, which a dense
// round's traffic bounds, and far less when most of them have mail.
// Every shard layout picks the same mode (the rule reads only the
// message lists, the active list and the alarms).
func (s *Simulator) buildFrontier() {
	s.stampGen++
	s.woken = s.woken[:0]
	if b, ok := s.alarms[s.round]; ok {
		for _, v := range b {
			if s.wakeAt[v] == s.round {
				s.wake(v)
			}
		}
		delete(s.alarms, s.round)
		s.spare = b[:0]
	}
	switch {
	case 2*(len(s.curUni)+s.curBcastSlots) < len(s.twin):
		s.gather = gatherInbox
		s.walkMail()
	case len(s.active)+len(s.woken) == s.g.N():
		s.gather = gatherAwake
	default:
		s.gather = gatherProbe
		for v, h := range s.halted {
			if h && s.hasMail(v) {
				s.wake(int32(v))
			}
		}
	}
	s.frontier = s.frontier[:0]
	if len(s.woken) > s.g.N()/16 {
		// Sorting many woken costs more than reading every flag: the
		// frontier is exactly the vertices not halted.
		for v, h := range s.halted {
			if !h {
				s.frontier = append(s.frontier, int32(v))
			}
		}
		return
	}
	slices.Sort(s.woken)
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

// wake runs halted vertex v this round and clears its alarm.
func (s *Simulator) wake(v int32) {
	s.halted[v] = false
	if s.wakeAt[v] != 0 {
		s.wakeAt[v] = 0
		s.sleepers--
	}
	s.woken = append(s.woken, v)
}

// hasMail reports whether any port of v delivers a message this round.
func (s *Simulator) hasMail(v int) bool {
	twin := s.twin[s.g.Offset(v):]
	for p, u := range s.g.Neighbors(v) {
		if s.curBcastOn[u] || s.at[twin[p]] != 0 {
			return true
		}
	}
	return false
}

// walkMail walks every message of a sparse round into the mail list
// and the inboxes, and wakes halted destinations.
func (s *Simulator) walkMail() {
	for _, u := range s.curUni {
		d := s.g.AdjAt(int(u.slot))
		if s.mailStamp[d] != s.stampGen {
			s.mailStamp[d] = s.stampGen
			s.mail = append(s.mail, d)
		}
		s.inbox[d] = append(s.inbox[d], s.twin[u.slot]-s.g.Offset(int(d)))
	}
	for _, u := range s.curBcastL {
		base := int(s.g.Offset(int(u)))
		for i, deg := 0, s.g.Degree(int(u)); i < deg; i++ {
			d := s.g.AdjAt(base + i)
			if s.mailStamp[d] != s.stampGen {
				s.mailStamp[d] = s.stampGen
				s.mail = append(s.mail, d)
			}
			s.inbox[d] = append(s.inbox[d], s.twin[base+i]-s.g.Offset(int(d)))
		}
	}
	for _, d := range s.mail {
		slices.Sort(s.inbox[d])
		if s.halted[d] {
			s.wake(d)
		}
	}
}

// collectLog appends one scope's send log to the global next-round lists
// and charges its messages to the round's traffic: one per unicast, and
// deg per compact broadcast, identical to its per-port expansion.
// The stepper calls it in ascending frontier order, so the merged lists
// do not depend on the shard layout; uni is the round's unicast count
// over all its logs.
func (s *Simulator) collectLog(l *sendLog, uni int) {
	if len(l.uni) > 0 {
		s.roundSent += int64(len(l.uni))
		if len(s.nxUni) == 0 && cap(l.uni) >= uni {
			// The round's first log becomes the list when it holds the
			// round: a one-shard round copies no unicast.
			s.nxUni, l.uni = l.uni, s.nxUni
		} else {
			if cap(s.nxUni) < uni {
				// Grow once per round, to the round or to double, as
				// Env.Send does: append's 1.25× steps, one per log,
				// leave several outgrown arrays behind.
				s.nxUni = append(make([]uniMsg, 0, max(uni, 2*cap(s.nxUni))), s.nxUni...)
			}
			s.nxUni = append(s.nxUni, l.uni...)
		}
		l.uni = l.uni[:0]
	}
	if len(l.bcast) > 0 {
		for _, u := range l.bcast {
			deg := s.g.Degree(int(u))
			s.roundSent += int64(deg)
			s.nxBcastSlots += deg
		}
		s.nxBcastL = append(s.nxBcastL, l.bcast...)
		l.bcast = l.bcast[:0]
	}
	for i := 0; i < len(l.sleep); {
		// One bucket lookup per run of sleepers naming the same round.
		r := s.wakeAt[l.sleep[i]]
		b, ok := s.alarms[r]
		if !ok {
			b, s.spare = s.spare, nil
		}
		for ; i < len(l.sleep) && s.wakeAt[l.sleep[i]] == r; i++ {
			b = append(b, l.sleep[i])
		}
		s.alarms[r] = b
	}
	s.sleepers += len(l.sleep)
	l.sleep = l.sleep[:0]
}

// finishRound runs on the coordinator after the round barrier and the
// log merge: drop the vertices that halted during the round
// from the active list and clear the round's inbox state — each step
// O(activity).
func (s *Simulator) finishRound() {
	s.active = s.active[:0]
	for _, v := range s.frontier {
		if !s.halted[v] {
			s.active = append(s.active, v)
		}
	}
	for _, d := range s.mail { // empty in dense rounds
		s.inbox[d] = s.inbox[d][:0]
	}
	s.mail = s.mail[:0]
}

// flip swaps the message buffers after a round: what was sent becomes
// deliverable, each unicast filed in at under its slot with its sent flag
// cleared, and the previous round's delivered slots and broadcasters —
// exactly the ones the outgoing lists name — are cleared. Metrics are
// updated here, from the traffic counter the log merge maintained, so
// Init and every round share the accounting.
func (s *Simulator) flip() {
	sent := s.roundSent
	s.roundSent = 0
	s.metrics.Messages += sent
	if sent > s.metrics.MaxRoundTraffic {
		s.metrics.MaxRoundTraffic = sent
	}
	s.metrics.Rounds = s.round
	s.uniHigh = max(s.uniHigh, len(s.curUni)+len(s.nxUni))
	for _, u := range s.curUni {
		s.at[u.slot] = 0
	}
	s.curUni, s.nxUni = s.nxUni, s.curUni[:0]
	for i, u := range s.curUni {
		s.at[u.slot] = int32(i + 1)
		s.sent[u.slot] = false
	}
	s.curBcast, s.nxBcast = s.nxBcast, s.curBcast
	s.curBcastOn, s.nxBcastOn = s.nxBcastOn, s.curBcastOn
	s.curBcastL, s.nxBcastL = s.nxBcastL, s.curBcastL
	s.curBcastSlots, s.nxBcastSlots = s.nxBcastSlots, 0
	for _, u := range s.nxBcastL {
		s.nxBcastOn[u] = false
	}
	s.nxBcastL = s.nxBcastL[:0]
}
