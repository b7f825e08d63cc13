// Package trace renders algorithm structures as ASCII diagrams — the
// reproduction medium for the paper's illustrative Figures 1–5. All
// renderings target 2D grid graphs (vertex (r, c) has ID r*cols+c),
// where cluster growth, ruling-set separation, and added paths are
// visible at a glance.
package trace

import (
	"fmt"
	"strings"

	"nearspan/internal/cluster"
	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

// GridClusters renders cluster membership: each cluster gets a letter
// (cycling a–z), its center is uppercase, unclustered vertices are '.'.
func GridClusters(rows, cols int, col *cluster.Collection) string {
	letter := make(map[int32]rune) // center -> letter
	next := 0
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c > 0 {
				sb.WriteByte(' ')
			}
			center := col.Center[v]
			if center < 0 {
				sb.WriteByte('.')
				continue
			}
			ch, ok := letter[center]
			if !ok {
				ch = rune('a' + next%26)
				letter[center] = ch
				next++
			}
			if int(center) == v {
				ch = ch - 'a' + 'A'
			}
			sb.WriteRune(ch)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GridMarks renders a vertex marking: marked vertices show their rune,
// others '.'.
func GridMarks(rows, cols int, marks map[int]rune) string {
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			if c > 0 {
				sb.WriteByte(' ')
			}
			if ch, ok := marks[v]; ok {
				sb.WriteRune(ch)
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// GridEdges renders which grid edges are present in h: vertices are 'o',
// horizontal edges '-', vertical edges '|', absent edges spaces. This is
// the Figure 2/4/5 view: the spanner's skeleton on the grid.
func GridEdges(rows, cols int, h *graph.Graph) string {
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := r*cols + c
			sb.WriteByte('o')
			if c+1 < cols {
				if h.HasEdge(v, v+1) {
					sb.WriteString("--")
				} else {
					sb.WriteString("  ")
				}
			}
		}
		sb.WriteByte('\n')
		if r+1 < rows {
			for c := 0; c < cols; c++ {
				v := r*cols + c
				if h.HasEdge(v, v+cols) {
					sb.WriteByte('|')
				} else {
					sb.WriteByte(' ')
				}
				if c+1 < cols {
					sb.WriteString("  ")
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// Legend returns a one-line legend for the cluster rendering.
func Legend() string {
	return "uppercase = cluster center, lowercase = member, '.' = unclustered"
}

// StepTable renders the per-step metrics stream of a construction as an
// aligned text table, one row per protocol session grouped by phase,
// with a subtotal row per phase and a grand total. This is the
// per-phase accounting view the paper's round analysis is stated in
// (rounds of Algorithm 1, ruling set, forest growth, and path climbs,
// phase by phase).
func StepTable(steps []protocols.StepMetrics) string {
	type row struct{ phase, step, rounds, messages, peak string }
	rows := []row{{"phase", "step", "rounds", "messages", "max/round"}}
	add := func(phase, step string, rounds int, msgs, peak int64) {
		rows = append(rows, row{phase, step,
			fmt.Sprintf("%d", rounds), fmt.Sprintf("%d", msgs), fmt.Sprintf("%d", peak)})
	}
	var totR int
	var totM, totP int64
	flushPhase := func(phase, r int, m, p int64) {
		add(fmt.Sprintf("%d", phase), "· phase total", r, m, p)
	}
	curPhase := -1
	var phR int
	var phM, phP int64
	for _, s := range steps {
		if s.Phase != curPhase {
			if curPhase >= 0 {
				flushPhase(curPhase, phR, phM, phP)
			}
			curPhase, phR, phM, phP = s.Phase, 0, 0, 0
		}
		add(fmt.Sprintf("%d", s.Phase), s.Step, s.Rounds, s.Messages, s.MaxRoundTraffic)
		phR += s.Rounds
		phM += s.Messages
		if s.MaxRoundTraffic > phP {
			phP = s.MaxRoundTraffic
		}
		totR += s.Rounds
		totM += s.Messages
		if s.MaxRoundTraffic > totP {
			totP = s.MaxRoundTraffic
		}
	}
	if curPhase >= 0 {
		flushPhase(curPhase, phR, phM, phP)
	}
	add("", "total", totR, totM, totP)

	w := [5]int{}
	for _, r := range rows {
		for i, c := range [5]string{r.phase, r.step, r.rounds, r.messages, r.peak} {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s  %-*s  %*s  %*s  %*s\n",
			w[0], r.phase, w[1], r.step, w[2], r.rounds, w[3], r.messages, w[4], r.peak)
	}
	return sb.String()
}
