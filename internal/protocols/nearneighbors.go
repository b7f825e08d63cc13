package protocols

import (
	"slices"

	"nearspan/internal/congest"
)

// NearNeighbors is Algorithm 1 of the paper ("Number of near neighbors",
// Appendix A): a bandwidth-respecting multi-source exploration that lets
// every vertex learn up to Deg cluster centers within distance Delta,
// with exact distances and traceback pointers, in O(Deg·Delta) rounds.
//
// Protocol phases (the paper's "phases", distinct from the main
// algorithm's phases) have Deg+2 rounds each: Deg+1 send slots plus one
// drain round, so all of a phase's messages land inside the phase. Phase
// 0 is the single announcement round, as in the paper. Messages that
// traversed p edges are heard during phase p; at the start of phase p+1
// each vertex selects up to Deg+1 of the centers it heard during phase p
// — smallest IDs first, the deterministic refinement of the paper's
// "arbitrary degi of these messages" — and forwards them one per send
// slot. Centers heard for the first time are also stored, up to Deg
// stored entries in total (the paper's "first degi vertices it has
// learned about").
//
// Two reproduction findings are baked into the forwarding rule (both
// demonstrated by ablation A4 in internal/experiments):
//
//  1. Forwarding is NOT limited to newly stored centers: as in the
//     paper, a wave about an already-known center keeps flowing. The
//     seemingly equivalent "forward only on first learning" optimization
//     breaks Lemma A.1's counting guarantee (a vertex whose neighbor
//     re-learns centers along longer paths can be starved below its
//     min(deg, |Γ^δ∩S|) quota).
//
//  2. The forward budget is Deg+1, not the paper's Deg. With exactly Deg
//     forward slots, a center's own announcement can compete against the
//     other centers' on the links back to it: a vertex adjacent to
//     center u that hears u plus Deg other announcements in one phase
//     may forward u's instead of another's, leaving u one center short —
//     u then misclassifies itself as unpopular while missing a center
//     within Delta, violating Theorem 2.1(2) as used by Lemma 2.14. (We
//     found random graphs where the smallest-ID instantiation of the
//     paper's "arbitrarily choose deg_i of these messages" does exactly
//     this.) One extra slot absorbs the self-announcement; asymptotics
//     are unchanged.
//
// Guarantees used by the spanner construction (Theorem 2.1, tested):
//
//  1. A center is popular iff it stores >= Deg other centers.
//  2. An *unpopular* center stores every center within Delta with exact
//     distance, and the Via pointers trace a shortest path on which
//     every vertex also knows its exact distance to the traced center.
//     (If a vertex on a shortest path to an unpopular center had capped
//     — dropping the center's wave from its forward set or storage —
//     its >= Deg stored centers would all lie within Delta of the
//     downstream center, forcing it to be popular by Lemma A.1.)
//
// A vertex's state is an NNState, the kernel the replay drives too (the
// centralized twin and the delta rebuild). It holds no maps:
//
//   - Known centers are an ascending run of at most Deg IDs, with the
//     distance and the Via port beside each. Via is the port toward the
//     neighbor that announced the center: the next hop of the path its
//     wave travelled.
//   - A phase's hearings are a sorted buffer of distinct centers, capped
//     at the K = Deg+1+|known| smallest. The cap is exact. Finalize reads
//     the heard centers smallest first and stops at Deg+1 forwards and at
//     Deg stored entries. At most |known| of the K smallest are known
//     already, so at least Deg+1 are new, and both quotas are met inside
//     the buffer. A center evicted from a full buffer has K smaller ones
//     ahead of it, and the buffer's maximum only falls from then on, so
//     its later hearings are rejected too: every center left in the
//     buffer has seen all of its hearings.
//   - A center heard on several ports keeps the smallest port. Ports
//     index the sorted adjacency (see graph.Neighbor), so the smallest
//     port is the smallest sender ID, and no hearing needs a neighbor-ID
//     lookup.
//
// A phase that repeats the one before is not heard, the rule the
// centralized twin applies to its receivers. A forward carries a flag
// (Words[2] = 1) when the sender's last Finalize left its list unchanged.
// Every non-empty list goes out at send slot 0, so a phase's first
// arrivals come from every neighbor with a list, and a receiver whose
// first arrivals are all flagged, from as many senders as the phase
// before (round 1's announcements count as phase 0's), goes deaf: it
// hears none of that phase's arrivals and skips the Finalize that would
// close it, so its buffer stays empty. The skip is exact:
//
//   - Each flagged sender sent the same list in the phase before, so it
//     is one of that phase's senders. Equal counts make the two sender
//     sets the same ports, with the same lists, so the phase's hearings
//     repeat the last phase's.
//   - Hearing what it heard last phase, a vertex forwards the same
//     smallest Deg+1 centers, and stores nothing new: the last Finalize
//     either stored every new center it heard, or its buffer was full
//     and held at least Deg+1 new centers, so the storage quota is met.
//     Its list stays unchanged, and its own forwards go out flagged.
//   - The final Finalize (dist == Delta) still runs, on the empty
//     buffer: it stores nothing, as the hearings would not, and clears
//     the list, so nothing is sent in the last round.
//
// The small fields sit in the padding of the larger ones: a vertex's
// program is 192 bytes.
type NearNeighbors struct {
	IsCenter bool
	same     bool  // this phase's forwards repeat the last phase's
	deaf     bool  // this phase repeats the last: its arrivals go unread
	Deg      int   // popularity threshold (paper deg_i)
	Delta    int32 // exploration radius (paper delta_i)
	qdist    int32 // distance carried by this phase's forwards

	state NNState // known centers, hearings and forwards

	// senders counts the ports of this phase's first arrivals, last the
	// phase before's.
	senders, last int32

	// rec, when non-nil, receives this vertex's per-phase forward
	// selections (the delta-rebuild transcript). Each program instance
	// writes only its own vertex's row, so the shared recorder is safe
	// when rounds fan out to shards.
	rec *TranscriptRecorder
}

var _ congest.Program = (*NearNeighbors)(nil)

// NewNearNeighborsRec returns the program factory for the given center
// set, popularity threshold deg, and radius delta. When rec is non-nil,
// every vertex records its per-phase forward selections into it.
func NewNearNeighborsRec(isCenter func(v int) bool, deg int, delta int32, rec *TranscriptRecorder) func(v int) congest.Program {
	return func(v int) congest.Program {
		return &NearNeighbors{IsCenter: isCenter(v), Deg: deg, Delta: delta, rec: rec}
	}
}

// NearNeighborsRounds is the exact round budget: one round for phase 0
// (the announcements, a single round as in the paper), Deg+2 rounds for
// each of the phases 1..Delta-1 (Deg+1 forward slots plus a drain
// round), and the finalization round of the last phase's hearings.
func NearNeighborsRounds(deg int, delta int32) int {
	if delta < 1 {
		return 1
	}
	return int(delta-1)*(deg+2) + 2
}

// forwardBudget is the per-phase forward allowance: Deg+1 (see the
// finding note on the type).
func (nn *NearNeighbors) forwardBudget() int { return nn.Deg + 1 }

// Popular reports whether this vertex detected itself as a popular
// center.
func (nn *NearNeighbors) Popular() bool {
	return nn.IsCenter && len(nn.state.keys) >= nn.Deg
}

// Init implements congest.Program.
func (nn *NearNeighbors) Init(env *congest.Env) {
	if nn.IsCenter {
		// Announce <own ID, distance 0>; neighbors hear it in phase 0.
		_ = env.Broadcast(nnMsg(int64(env.ID()), 0, false))
	}
}

// Round implements congest.Program.
func (nn *NearNeighbors) Round(env *congest.Env) {
	// Round 1 is the paper's single-round phase 0: announcements arrive
	// and are buffered; nothing is finalized or sent.
	sending := env.Round() >= 2
	phaseLen := nn.forwardBudget() + 1
	slot := 0
	if sending {
		slot = (env.Round() - 2) % phaseLen
	}

	// 1. Phase start: process the previous phase's hearings, unless they
	// repeated the phase before's. Phase p starts at round
	// (p-1)*phaseLen+2, so the hearings carry distance p.
	if sending && slot == 0 {
		dist := int32((env.Round()-2)/phaseLen) + 1
		changed := false
		if !nn.deaf || dist == nn.Delta {
			_, changed = nn.state.Finalize(dist, nn.Deg, nn.Delta)
		}
		if nn.rec != nil && dist < nn.Delta {
			nn.rec.Set(env.ID(), dist, nn.state.fwd)
		}
		nn.qdist, nn.same = dist, !changed
		// Until its first arrivals say otherwise the phase has no sender,
		// and repeats the last if that had none either: a vertex that no
		// arrival wakes at slot 1 never reaches step 2.
		nn.last, nn.senders = nn.senders, 0
		nn.deaf = nn.last == 0
	}

	// 2. The phase's first arrivals (send slot 1, or round 1's
	// announcements) decide whether it repeats the last.
	if slot == 1 || !sending {
		nn.deaf = nn.repeats(env)
	}

	// 3. Buffer this round's arrivals (all hearings of a phase carry the
	// same distance). Most arrivals repeat the center just heard on a
	// smaller port: the inlined heard check drops them without a call.
	if !nn.deaf {
		self := int64(env.ID())
		for port, m := range env.Recv() {
			if c := m.Words[0]; m.Kind == kindNN && c != self && !nn.state.heard(c, int32(port)) {
				nn.state.Hear(c, int32(port), nn.Deg)
			}
		}
	}

	// 4. Send slot: forward one selected center over every edge.
	if fwd := nn.state.fwd; sending && slot < len(fwd) {
		_ = env.Broadcast(nnMsg(fwd[slot], nn.qdist, nn.same))
	}

	// 5. After the phase's last forward only hearings are left, and
	// they wake the vertex: sleep until the next phase start.
	if sending && slot+1 >= len(nn.state.fwd) && slot+1 < phaseLen {
		env.SleepUntil(env.Round() - slot + phaseLen)
	}
}

// repeats counts the phase's first arrivals and reports whether they
// come from as many senders as the phase before's, all flagged.
func (nn *NearNeighbors) repeats(env *congest.Env) bool {
	same := true
	for _, m := range env.Recv() {
		nn.senders++
		same = same && m.Words[2] != 0
	}
	return same && nn.senders == nn.last
}

// NNState is one vertex's Algorithm 1 state and the only implementation
// of its hear and finalize rules: the distributed program and the
// replay (ReplayNearNeighbors, which the centralized twin
// CentralNearNeighborsRec runs from the empty run) both drive it. See
// NearNeighbors for its layout and why the bounded hearing buffer is
// exact. Every slice is reused across phases.
type NNState struct {
	keys  []int64 // known centers, ascending; at most deg
	dist  []int32 // distance to keys[i]
	ports []int32 // Via port toward keys[i]
	bufC  []int64 // centers heard this phase: distinct, ascending, at most K
	bufP  []int32 // smallest port bufC[i] was heard on
	hint  int     // buffer slot of the last single hearing
	fwd   []int64 // forward selection of the last finalized phase
}

// Hear buffers one announcement of center c that arrived on port, under
// the popularity threshold deg.
func (s *NNState) Hear(c int64, port int32, deg int) {
	// One round's arrivals often repeat a center: try the last slot first.
	if s.heard(c, port) {
		return
	}
	if i := s.hear(c, port, deg, 0, false); i > 0 {
		s.hint = i - 1
	}
}

// heard reports whether the last single hearing's slot already holds c
// at a port no larger than port, so that hearing c on port changes
// nothing. It is Hear's fast path, small enough to inline.
func (s *NNState) heard(c int64, port int32) bool {
	h := s.hint
	return h < len(s.bufC) && s.bufC[h] == c && port >= s.bufP[h]
}

// HearRun buffers a neighbor's forward list — an ascending run of
// centers that arrived on one port — skipping self. It is Hear applied
// to each center in turn, but each search resumes where the previous one
// ended, and the run stops at the first center a full buffer rejects.
func (s *NNState) HearRun(ids []int64, port int32, deg int, self int64) {
	from := 0
	for _, c := range ids {
		if c == self {
			continue
		}
		if from = s.hear(c, port, deg, from, true); from < 0 {
			return
		}
	}
}

// hear buffers c, whose slot is at index from or later, and returns the
// index just past that slot, or -1 if the full buffer rejected c.
func (s *NNState) hear(c int64, port int32, deg int, from int, gallop bool) int {
	n, k := len(s.bufC), deg+1+len(s.keys)
	if n == k && c > s.bufC[n-1] {
		return -1
	}
	// Lower bound over bufC[from:n], written by hand: this is the
	// protocol's innermost loop, and a generic search's closure does not
	// inline. Inside a run the next center usually sits just past the
	// previous one, so a run's searches gallop forward first.
	lo, hi := from, n
	for step := 1; gallop && lo+step <= hi; step <<= 1 {
		if probe := lo + step - 1; s.bufC[probe] >= c {
			hi = probe
			break
		}
		lo += step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.bufC[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n && s.bufC[lo] == c {
		if port < s.bufP[lo] {
			s.bufP[lo] = port
		}
		return lo + 1
	}
	if n < k {
		s.bufC, s.bufP = append(s.bufC, 0), append(s.bufP, 0)
		n++
	}
	// Shift the tail right by one; a full buffer drops its largest.
	copy(s.bufC[lo+1:n], s.bufC[lo:n-1])
	copy(s.bufP[lo+1:n], s.bufP[lo:n-1])
	s.bufC[lo], s.bufP[lo] = c, port
	return lo + 1
}

// Finalize closes the phase whose hearings traversed dist edges. It
// selects the forwards — the smallest deg+1 heard centers, known or
// not, while dist < delta — and stores the first-heard centers, smallest
// first, up to deg stored entries. The buffer is emptied for the next
// phase. It returns the forward list, which aliases the state until the
// next Finalize, and whether it differs from the previous one.
func (s *NNState) Finalize(dist int32, deg int, delta int32) (fwd []int64, changed bool) {
	sel := s.bufC[:0]
	if dist < delta {
		sel = s.bufC[:min(deg+1, len(s.bufC))]
	}
	changed = !slices.Equal(s.fwd, sel)
	if changed {
		s.fwd = append(s.fwd[:0], sel...)
	}
	// One merge walk against the known run compacts the centers to store
	// to the buffer's front.
	m, k := 0, 0
	for i := 0; i < len(s.bufC) && len(s.keys)+m < deg; i++ {
		c := s.bufC[i]
		for k < len(s.keys) && s.keys[k] < c {
			k++
		}
		if k < len(s.keys) && s.keys[k] == c {
			continue
		}
		s.bufC[m], s.bufP[m] = c, s.bufP[i]
		m++
	}
	if m > 0 {
		// Merge them into the known run from the back.
		i := len(s.keys) - 1
		w := i + m
		s.keys = slices.Grow(s.keys, m)[:w+1]
		s.dist = slices.Grow(s.dist, m)[:w+1]
		s.ports = slices.Grow(s.ports, m)[:w+1]
		for j := m - 1; j >= 0; w-- {
			if i >= 0 && s.keys[i] > s.bufC[j] {
				s.keys[w], s.dist[w], s.ports[w] = s.keys[i], s.dist[i], s.ports[i]
				i--
			} else {
				s.keys[w], s.dist[w], s.ports[w] = s.bufC[j], dist, s.bufP[j]
				j--
			}
		}
	}
	s.bufC, s.bufP = s.bufC[:0], s.bufP[:0]
	return s.fwd, changed
}

// Known returns the stored centers (ascending), their distances and
// their Via ports as parallel slices aliasing the state.
func (s *NNState) Known() (keys []int64, dist []int32, ports []int32) {
	return s.keys, s.dist, s.ports
}

// Seed resets the state to the one a vertex held when phase began, in a
// run where it stored the row (ascending keys, parallel dist and ports)
// and forwarded fwd in the phase before (its announcement before phase
// 1). Entries are stored in the phase equal to their distance, so the
// state keeps those whose distance is below phase. fwd is copied.
func (s *NNState) Seed(keys []int64, dist, ports []int32, fwd []int64, phase int32) {
	s.keys, s.dist, s.ports = s.keys[:0], s.dist[:0], s.ports[:0]
	s.bufC, s.bufP = s.bufC[:0], s.bufP[:0]
	s.fwd = append(s.fwd[:0], fwd...)
	for i, c := range keys {
		if dist[i] < phase {
			s.keys = append(s.keys, c)
			s.dist = append(s.dist, dist[i])
			s.ports = append(s.ports, ports[i])
		}
	}
}

// nnMsg is a forward of center over dist edges, flagged (Words[2] = 1)
// when the sender's list repeats its last phase's.
func nnMsg(center int64, dist int32, same bool) congest.Message {
	m := congest.Message{Kind: kindNN, Words: [congest.MessageWords]int64{center, int64(dist)}}
	if same {
		m.Words[2] = 1
	}
	return m
}

// NNResult is the aggregate outcome of a NearNeighbors run, stored
// columnar: the embedded Routing holds, per vertex, the run of known
// center IDs (sorted ascending) with the port toward each (the Via
// pointer), and Dist holds the exact distance parallel to those entries.
// Interconnection climbs route over the embedded table directly, and a
// vertex's start-key set is its key run — both without copying.
type NNResult struct {
	Routing
	// Dist is parallel to the routing entries: Dist[i] is the distance
	// from the run's vertex to center keys[i].
	Dist    []int32
	Popular []bool
}

// Known returns the centers v learned about (sorted ascending) and the
// distances to them, as parallel slices aliasing the table.
func (r *NNResult) Known(v int) (centers []int64, dist []int32) {
	lo, hi := r.off[v], r.off[v+1]
	return r.keys[lo:hi], r.Dist[lo:hi]
}

// Row returns v's full table row — known center IDs (ascending),
// distances, and Via ports as parallel slices aliasing the table. The
// delta-rebuild splice copies clean vertices' rows verbatim into the
// rebuilt table.
func (r *NNResult) Row(v int) (keys []int64, dist []int32, ports []int32) {
	lo, hi := r.off[v], r.off[v+1]
	return r.keys[lo:hi], r.Dist[lo:hi], r.ports[lo:hi]
}

// DistTo returns v's stored distance to center c, if stored.
func (r *NNResult) DistTo(v int, c int64) (int32, bool) {
	keys, _ := r.At(v)
	if i, ok := slices.BinarySearch(keys, c); ok {
		return r.Dist[int(r.off[v])+i], true
	}
	return 0, false
}

// EmptyNNResult is the result of a run with no centers: nothing known,
// nobody popular.
func EmptyNNResult(n int) NNResult {
	return NNResult{
		Routing: Routing{off: make([]int32, n+1)},
		Popular: make([]bool, n),
	}
}

// NewNNResult assembles the columnar table from per-vertex rows: row(v)
// returns v's known centers (ascending) with their distances and Via
// ports, and whether v is popular. It is called twice per vertex; the
// rows are copied.
func NewNNResult(n int, row func(v int) (keys []int64, dist, ports []int32, popular bool)) NNResult {
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		keys, _, _, _ := row(v)
		off[v+1] = off[v] + int32(len(keys))
	}
	r := NNResult{
		Routing: Routing{off: off, keys: make([]int64, off[n]), ports: make([]int32, off[n])},
		Dist:    make([]int32, off[n]),
		Popular: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		keys, dist, ports, popular := row(v)
		copy(r.keys[off[v]:], keys)
		copy(r.Dist[off[v]:], dist)
		copy(r.ports[off[v]:], ports)
		r.Popular[v] = popular
	}
	return r
}

// ExtractNN collects results from a finished simulator whose programs
// are *NearNeighbors.
func ExtractNN(sim *congest.Simulator) NNResult {
	return NewNNResult(sim.Graph().N(), func(v int) ([]int64, []int32, []int32, bool) {
		p := sim.Program(v).(*NearNeighbors)
		keys, dist, ports := p.state.Known()
		return keys, dist, ports, p.Popular()
	})
}
