package protocols

import (
	"nearspan/internal/congest"
)

// RulingSet deterministically computes a (q+1, c·q)-ruling set for a
// member set W in O(q·c·n^{1/c}) rounds (paper Theorem 2.2, in the style
// of Schneider–Elkin–Wattenhofer 2013 and Kuhn–Maus–Weidner 2018): the
// selected subset A ⊆ W satisfies
//
//   - separation: every two distinct selected vertices are at distance
//     >= q+1 in G;
//   - domination: every member of W is within distance c·q of a selected
//     vertex.
//
// The algorithm is a digit competition. Write each ID in base
// b = ceil(n^{1/c}) with c digits, most significant first. Process digit
// positions in order; within a position, process digit values v = b-1
// down to 0 in windows of q+1 rounds. In value-v's window, every still-
// active candidate whose current digit equals v fires a kill wave of
// radius q; active candidates with a smaller current digit that are hit
// become inactive. Two invariants give the guarantees:
//
//   - after a position is processed, active candidates within distance q
//     of each other agree on all processed digits — so after all c
//     positions, survivors within distance q would have equal IDs, i.e.
//     survivors are (q+1)-separated;
//   - a candidate deactivated in some window was within q of a candidate
//     that stays active for the rest of that position (only smaller
//     digits are ever killed afterwards), so deactivation chains make at
//     most one q-hop per position: domination c·q.
//
// Wave congestion is one message per edge per round: waves of a window
// are synchronized, and each vertex forwards at most one wave per window.
type RulingSet struct {
	Member bool
	Q      int32 // separation parameter (>= 1)
	C      int   // number of digit positions
	B      int64 // digit base, ceil(n^{1/c})

	Selected bool // output: member of the ruling set

	active       bool
	forwardedWin int // last window index in which a wave was forwarded
}

var _ congest.Program = (*RulingSet)(nil)

// NewRulingSet returns the program factory for computing a ruling set of
// the member set with parameters q and c on an n-vertex graph.
func NewRulingSet(isMember func(v int) bool, q int32, c int, n int) func(v int) congest.Program {
	b := DigitBase(n, c)
	return func(v int) congest.Program {
		return &RulingSet{Member: isMember(v), Q: q, C: c, B: b}
	}
}

// DigitBase returns ceil(n^{1/c}), the smallest base b with b^c >= n.
func DigitBase(n, c int) int64 {
	if n <= 1 {
		return 1
	}
	lo, hi := int64(1), int64(n)
	for lo < hi {
		mid := (lo + hi) / 2
		if powAtLeast(mid, c, int64(n)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// powAtLeast reports whether b^c >= target without overflowing.
func powAtLeast(b int64, c int, target int64) bool {
	acc := int64(1)
	for i := 0; i < c; i++ {
		if acc >= target {
			return true
		}
		if b != 0 && acc > target/b+1 {
			return true
		}
		acc *= b
		if acc < 0 { // overflow: certainly large enough
			return true
		}
	}
	return acc >= target
}

// RulingSetRounds is the exact round budget: c positions × b values × a
// (q+1)-round wave window.
func RulingSetRounds(q int32, c int, n int) int {
	b := DigitBase(n, c)
	return c * int(b) * int(q+1)
}

// windowLen is q+1: one firing round plus q propagation rounds.
func (rs *RulingSet) windowLen() int { return int(rs.Q) + 1 }

// window returns the 0-based window index of 1-based round r, and the
// 0-based offset within the window.
func (rs *RulingSet) window(r int) (win, off int) {
	r0 := r - 1
	return r0 / rs.windowLen(), r0 % rs.windowLen()
}

// digitFor returns the digit examined in the given window, and the digit
// position. Windows run through positions c-1..0 (most significant
// first), values b-1..0.
func (rs *RulingSet) digitFor(win int) (pos int, value int64) {
	pos = rs.C - 1 - win/int(rs.B)
	value = rs.B - 1 - int64(win%int(rs.B))
	return pos, value
}

// digit extracts digit position pos (0 = least significant) of id in
// base b.
func digit(id int64, pos int, b int64) int64 {
	for i := 0; i < pos; i++ {
		id /= b
	}
	return id % b
}

// Init implements congest.Program.
func (rs *RulingSet) Init(env *congest.Env) {
	rs.active = rs.Member
	rs.forwardedWin = -1
	rs.rest(env)
}

// rest idles the vertex until it next has work no wave brings. A vertex
// that is no longer a candidate only forwards waves, so it halts and
// waves wake it. An active candidate sleeps until the start of its next
// firing window (one per digit position), or else the schedule's last
// round, where it decides Selected.
func (rs *RulingSet) rest(env *congest.Env) {
	if !rs.active {
		env.Halt()
		return
	}
	r, next := env.Round(), rs.C*int(rs.B)*rs.windowLen()
	for pos := rs.C - 1; pos >= 0; pos-- {
		win := (rs.C-1-pos)*int(rs.B) + int(rs.B-1-digit(int64(env.ID()), pos, rs.B))
		if start := win*rs.windowLen() + 1; start > r {
			next = start
			break
		}
	}
	if next > r+1 {
		env.SleepUntil(next)
	}
}

// Round implements congest.Program.
func (rs *RulingSet) Round(env *congest.Env) {
	win, off := rs.window(env.Round())
	pos, value := rs.digitFor(win)
	if pos < 0 {
		// Past the schedule: finalize (idempotent).
		rs.Selected = rs.Member && rs.active
		return
	}

	// Deliver wave hits: any wave in this window kills an active
	// candidate with a digit smaller than the window's value, and is
	// forwarded (once per window) while hops remain.
	maxHops := int64(-1)
	for _, m := range env.Recv() {
		if m.Kind == kindRulingWave && m.Words[0] > maxHops {
			maxHops = m.Words[0]
		}
	}
	if maxHops >= 0 {
		if rs.active && digit(int64(env.ID()), pos, rs.B) < value {
			rs.active = false
		}
		if maxHops > 0 && rs.forwardedWin != win {
			rs.forwardedWin = win
			_ = env.Broadcast(waveMsg(maxHops - 1))
		}
	}

	// Fire at window start.
	if off == 0 && rs.active && digit(int64(env.ID()), pos, rs.B) == value {
		rs.forwardedWin = win
		if rs.Q >= 1 {
			_ = env.Broadcast(waveMsg(int64(rs.Q - 1)))
		}
	}

	if win == rs.C*int(rs.B)-1 && off == rs.windowLen()-1 {
		rs.Selected = rs.Member && rs.active
	}
	rs.rest(env)
}

func waveMsg(hops int64) congest.Message {
	return congest.Message{Kind: kindRulingWave, Words: [congest.MessageWords]int64{hops}}
}

// ExtractRulingSet returns the selected vertex set from a finished
// simulator whose programs are *RulingSet.
func ExtractRulingSet(sim *congest.Simulator) []int {
	var out []int
	for v := 0; v < sim.Graph().N(); v++ {
		if sim.Program(v).(*RulingSet).Selected {
			out = append(out, v)
		}
	}
	return out
}
