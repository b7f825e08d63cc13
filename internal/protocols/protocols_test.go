package protocols

import (
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/edgeset"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// testGraphs is the shared workload set for protocol tests: shapes that
// stress depth (path), symmetry ties (torus, grid), density (GNP,
// communities) and degree skew (caterpillar, star-ish PA graph).
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	pa, err := gen.PreferentialAttachment(80, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":        gen.Path(40),
		"grid":        gen.Grid(6, 8),
		"torus":       gen.Torus(6, 6),
		"gnp":         gen.GNP(70, 0.07, 21, true),
		"communities": gen.Communities(3, 20, 0.25, 0.01, 5),
		"caterpillar": gen.Caterpillar(12, 3),
		"pa":          pa,
	}
}

func runSim(t *testing.T, g *graph.Graph, factory func(v int) congest.Program, rounds int, eng congest.Engine) *congest.Simulator {
	t.Helper()
	sim, err := congest.NewUniform(g, factory, congest.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(rounds); err != nil {
		t.Fatalf("run: %v", err)
	}
	return sim
}

// --- BFSForest ---

func TestBFSForestMatchesMultiBFSOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		roots := []int{0, g.N() / 2, g.N() - 1}
		isRoot := func(v int) bool { return v == roots[0] || v == roots[1] || v == roots[2] }
		for _, depth := range []int32{0, 1, 3, 7, int32(g.N())} {
			sim := runSim(t, g, NewBFSForest(isRoot, depth), ForestRounds(depth), congest.EngineSequential)
			got := ExtractForest(sim)
			wantDist, wantRoot, wantParent := g.MultiBFS(roots, depth)
			for v := 0; v < g.N(); v++ {
				wd := wantDist[v]
				if wd == graph.Infinity {
					if got.Dist[v] != -1 {
						t.Errorf("%s depth %d v%d: reached at %d, oracle unreachable", name, depth, v, got.Dist[v])
					}
					continue
				}
				if got.Dist[v] != wd {
					t.Errorf("%s depth %d v%d: dist=%d want %d", name, depth, v, got.Dist[v], wd)
				}
				if got.Root[v] != int64(wantRoot[v]) {
					t.Errorf("%s depth %d v%d: root=%d want %d", name, depth, v, got.Root[v], wantRoot[v])
				}
				if wd > 0 {
					gotParent := g.Neighbor(v, got.ParentPort[v])
					if int32(gotParent) != wantParent[v] {
						t.Errorf("%s depth %d v%d: parent=%d want %d", name, depth, v, gotParent, wantParent[v])
					}
				} else if got.ParentPort[v] != -1 {
					t.Errorf("%s depth %d v%d: root has parent port %d", name, depth, v, got.ParentPort[v])
				}
			}
		}
	}
}

func TestBFSForestEnginesAgree(t *testing.T) {
	g := gen.GNP(60, 0.08, 7, true)
	isRoot := func(v int) bool { return v%11 == 0 }
	simSeq := runSim(t, g, NewBFSForest(isRoot, 6), ForestRounds(6), congest.EngineSequential)
	a := ExtractForest(simSeq)
	eng := congest.EngineParallel
	sim := runSim(t, g, NewBFSForest(isRoot, 6), ForestRounds(6), eng)
	b := ExtractForest(sim)
	for v := 0; v < g.N(); v++ {
		if a.Dist[v] != b.Dist[v] || a.Root[v] != b.Root[v] || a.ParentPort[v] != b.ParentPort[v] {
			t.Errorf("%s v%d: engines disagree: %+v vs %+v", eng,
				v, []any{a.Dist[v], a.Root[v], a.ParentPort[v]}, []any{b.Dist[v], b.Root[v], b.ParentPort[v]})
		}
	}
}

func TestBFSForestNoRoots(t *testing.T) {
	g := gen.Path(10)
	sim := runSim(t, g, NewBFSForest(func(int) bool { return false }, 5), ForestRounds(5), congest.EngineSequential)
	res := ExtractForest(sim)
	for v := 0; v < g.N(); v++ {
		if res.Dist[v] != -1 || res.Root[v] != -1 {
			t.Errorf("v%d reached with no roots", v)
		}
	}
}

// --- NearNeighbors (Algorithm 1) ---

func nnCenters(g *graph.Graph, mod int) []int {
	var cs []int
	for v := 0; v < g.N(); v++ {
		if v%mod == 0 {
			cs = append(cs, v)
		}
	}
	return cs
}

func runNN(t *testing.T, g *graph.Graph, centers []int, deg int, delta int32, eng congest.Engine) NNResult {
	t.Helper()
	isC := make(map[int]bool, len(centers))
	for _, c := range centers {
		isC[c] = true
	}
	sim := runSim(t, g, NewNearNeighbors(func(v int) bool { return isC[v] }, deg, delta),
		NearNeighborsRounds(deg, delta), eng)
	return ExtractNN(sim)
}

func TestNearNeighborsMatchesCentralOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, cfg := range []struct {
			mod, deg int
			delta    int32
		}{
			{1, 3, 2}, {3, 2, 4}, {5, 4, 6}, {2, 6, 3},
		} {
			centers := nnCenters(g, cfg.mod)
			dist := runNN(t, g, centers, cfg.deg, cfg.delta, congest.EngineSequential)
			central := CentralNearNeighbors(g, centers, cfg.deg, cfg.delta)
			for v := 0; v < g.N(); v++ {
				cKeys, cDist := central.Known(v)
				dKeys, dDist := dist.Known(v)
				if len(dKeys) != len(cKeys) {
					t.Fatalf("%s cfg%+v v%d: |known| distributed=%d central=%d",
						name, cfg, v, len(dKeys), len(cKeys))
				}
				for i, c := range cKeys {
					if dKeys[i] != c || dDist[i] != cDist[i] {
						t.Errorf("%s cfg%+v v%d entry %d: distributed (%d,%d), central (%d,%d)",
							name, cfg, v, i, dKeys[i], dDist[i], c, cDist[i])
					}
					dPort, _ := dist.Port(v, c)
					cPort, _ := central.Port(v, c)
					if dPort != cPort {
						t.Errorf("%s cfg%+v v%d center %d: via=%d central=%d",
							name, cfg, v, c, dPort, cPort)
					}
				}
				if dist.Popular[v] != central.Popular[v] {
					t.Errorf("%s cfg%+v v%d: popular=%v central=%v",
						name, cfg, v, dist.Popular[v], central.Popular[v])
				}
			}
		}
	}
}

func TestNearNeighborsEnginesAgree(t *testing.T) {
	g := gen.Grid(7, 7)
	centers := nnCenters(g, 3)
	a := runNN(t, g, centers, 3, 4, congest.EngineSequential)
	eng := congest.EngineParallel
	b := runNN(t, g, centers, 3, 4, eng)
	for v := 0; v < g.N(); v++ {
		aKeys, aDist := a.Known(v)
		bKeys, bDist := b.Known(v)
		if len(aKeys) != len(bKeys) || a.Popular[v] != b.Popular[v] {
			t.Fatalf("%s v%d: engines disagree", eng, v)
		}
		for i, c := range aKeys {
			aPort, _ := a.Port(v, c)
			bPort, _ := b.Port(v, c)
			if bKeys[i] != c || bDist[i] != aDist[i] || aPort != bPort {
				t.Errorf("%s v%d center %d: engines disagree", eng, v, c)
			}
		}
	}
}

// Theorem 2.1(1): a center is detected popular exactly when it has >= deg
// other centers within delta.
func TestPopularityMatchesGroundTruth(t *testing.T) {
	for name, g := range testGraphs(t) {
		centers := nnCenters(g, 2)
		isC := make(map[int]bool)
		for _, c := range centers {
			isC[c] = true
		}
		deg, delta := 4, int32(3)
		res := runNN(t, g, centers, deg, delta, congest.EngineSequential)
		for _, c := range centers {
			dist := g.BFSBounded(c, delta)
			count := 0
			for v := 0; v < g.N(); v++ {
				if v != c && isC[v] && dist[v] <= delta {
					count++
				}
			}
			wantPopular := count >= deg
			if res.Popular[c] != wantPopular {
				t.Errorf("%s center %d: popular=%v, ground truth %v (count=%d)",
					name, c, res.Popular[c], wantPopular, count)
			}
		}
	}
}

// Theorem 2.1(2): an unpopular center knows every center within delta,
// with exact distances, and its traceback paths are shortest paths.
func TestUnpopularCentersKnowExactNeighborhood(t *testing.T) {
	for name, g := range testGraphs(t) {
		centers := nnCenters(g, 2)
		isC := make(map[int]bool)
		for _, c := range centers {
			isC[c] = true
		}
		deg, delta := 5, int32(4)
		res := runNN(t, g, centers, deg, delta, congest.EngineSequential)
		checked := 0
		for _, c := range centers {
			if res.Popular[c] {
				continue
			}
			dist := g.BFSBounded(c, delta)
			for v := 0; v < g.N(); v++ {
				if v == c || !isC[v] {
					continue
				}
				if dist[v] <= delta {
					got, ok := res.DistTo(c, int64(v))
					if !ok {
						t.Errorf("%s unpopular %d missing center %d at distance %d",
							name, c, v, dist[v])
						continue
					}
					if got != dist[v] {
						t.Errorf("%s unpopular %d center %d: stored %d, exact %d",
							name, c, v, got, dist[v])
					}
					checked++
				}
			}
			// Stored set contains nothing beyond delta.
			ccs, ds := res.Known(c)
			for i, cc := range ccs {
				if ds[i] > delta {
					t.Errorf("%s unpopular %d stores %d at distance %d > delta", name, c, cc, ds[i])
				}
			}
		}
		if checked == 0 {
			t.Logf("%s: no unpopular pairs checked (all popular)", name)
		}
	}
}

func TestTracePathsAreShortest(t *testing.T) {
	g := gen.Grid(8, 8)
	centers := nnCenters(g, 1)
	res := runNN(t, g, centers, 12, 3, congest.EngineSequential)
	traced := 0
	for _, c := range centers {
		if res.Popular[c] {
			continue
		}
		targets, dists := res.Known(c)
		for i, target := range targets {
			d := dists[i]
			path, ok := TracePath(g, res, c, target)
			if !ok {
				t.Fatalf("trace from %d to %d broke at %v", c, target, path)
			}
			if int32(len(path)-1) != d {
				t.Errorf("trace %d->%d: length %d, stored dist %d", c, target, len(path)-1, d)
			}
			if g.Distance(c, int(target)) != d {
				t.Errorf("trace %d->%d: stored dist %d is not exact (%d)",
					c, target, d, g.Distance(c, int(target)))
			}
			for i := 0; i+1 < len(path); i++ {
				if !g.HasEdge(path[i], path[i+1]) {
					t.Errorf("trace %d->%d: %d-%d not an edge", c, target, path[i], path[i+1])
				}
			}
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("no traces exercised")
	}
}

// --- RulingSet ---

func runRulingSet(t *testing.T, g *graph.Graph, members []int, q int32, c int, eng congest.Engine) []int {
	t.Helper()
	isM := make(map[int]bool, len(members))
	for _, w := range members {
		isM[w] = true
	}
	sim := runSim(t, g, NewRulingSet(func(v int) bool { return isM[v] }, q, c, g.N()),
		RulingSetRounds(q, c, g.N()), eng)
	return ExtractRulingSet(sim)
}

func TestRulingSetInvariants(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, cfg := range []struct {
			mod int
			q   int32
			c   int
		}{
			{1, 2, 2}, {2, 3, 2}, {1, 4, 3}, {3, 2, 4},
		} {
			members := nnCenters(g, cfg.mod)
			sel := runRulingSet(t, g, members, cfg.q, cfg.c, congest.EngineSequential)
			sepOK, domOK := VerifyRulingSet(g, members, sel, cfg.q, int32(cfg.c)*cfg.q)
			if !sepOK {
				t.Errorf("%s cfg%+v: separation violated", name, cfg)
			}
			if !domOK {
				t.Errorf("%s cfg%+v: domination violated", name, cfg)
			}
			// Selected must be members.
			isM := make(map[int]bool)
			for _, w := range members {
				isM[w] = true
			}
			for _, s := range sel {
				if !isM[s] {
					t.Errorf("%s cfg%+v: non-member %d selected", name, cfg, s)
				}
			}
		}
	}
}

func TestRulingSetMatchesCentralOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		members := nnCenters(g, 2)
		for _, cfg := range []struct {
			q int32
			c int
		}{{2, 2}, {3, 3}} {
			sel := runRulingSet(t, g, members, cfg.q, cfg.c, congest.EngineSequential)
			want := CentralRulingSet(g, members, cfg.q, cfg.c, g.N())
			if len(sel) != len(want) {
				t.Fatalf("%s q=%d c=%d: |distributed|=%d |central|=%d (%v vs %v)",
					name, cfg.q, cfg.c, len(sel), len(want), sel, want)
			}
			for i := range sel {
				if sel[i] != want[i] {
					t.Errorf("%s q=%d c=%d: mismatch at %d: %v vs %v", name, cfg.q, cfg.c, i, sel, want)
				}
			}
		}
	}
}

func TestRulingSetEnginesAgree(t *testing.T) {
	g := gen.Torus(6, 6)
	members := nnCenters(g, 1)
	a := runRulingSet(t, g, members, 3, 2, congest.EngineSequential)
	eng := congest.EngineParallel
	b := runRulingSet(t, g, members, 3, 2, eng)
	if len(a) != len(b) {
		t.Fatalf("%s: engines disagree: %v vs %v", eng, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: engines disagree: %v vs %v", eng, a, b)
		}
	}
}

func TestRulingSetEmptyMembers(t *testing.T) {
	g := gen.Path(10)
	sel := runRulingSet(t, g, nil, 2, 2, congest.EngineSequential)
	if len(sel) != 0 {
		t.Errorf("empty member set produced %v", sel)
	}
}

func TestRulingSetSingleMember(t *testing.T) {
	g := gen.Path(10)
	sel := runRulingSet(t, g, []int{4}, 2, 2, congest.EngineSequential)
	if len(sel) != 1 || sel[0] != 4 {
		t.Errorf("single member: got %v", sel)
	}
}

func TestDigitBase(t *testing.T) {
	cases := []struct {
		n, c int
		want int64
	}{
		{1, 2, 1}, {2, 1, 2}, {16, 2, 4}, {17, 2, 5}, {100, 2, 10},
		{101, 2, 11}, {1000, 3, 10}, {1024, 2, 32}, {5, 3, 2}, {8, 3, 2}, {9, 3, 3},
	}
	for _, c := range cases {
		if got := DigitBase(c.n, c.c); got != c.want {
			t.Errorf("DigitBase(%d,%d)=%d, want %d", c.n, c.c, got, c.want)
		}
	}
	// b^c >= n always.
	for n := 1; n < 200; n += 7 {
		for c := 1; c <= 4; c++ {
			b := DigitBase(n, c)
			p := int64(1)
			for i := 0; i < c; i++ {
				p *= b
			}
			if p < int64(n) {
				t.Errorf("DigitBase(%d,%d)=%d: b^c=%d < n", n, c, b, p)
			}
		}
	}
}

func TestDigits(t *testing.T) {
	// 123 base 5 = 443.
	if digit(123, 0, 5) != 3 || digit(123, 1, 5) != 4 || digit(123, 2, 5) != 4 {
		t.Errorf("digit extraction broken: %d %d %d",
			digit(123, 0, 5), digit(123, 1, 5), digit(123, 2, 5))
	}
}

// --- Climb ---

// buildRouting flattens per-vertex (key -> port) maps into a Routing —
// the test-side constructor for hand-written routing tables. It rides
// the production flatten (buildNNResult) with dummy distances, so the
// tests always exercise the same layout the extraction produces.
func buildRouting(n int, via []map[int64]int) Routing {
	known := make([]map[int64]int32, n)
	for v := range known {
		known[v] = make(map[int64]int32, len(via[v]))
		for k := range via[v] {
			known[v][k] = 0
		}
	}
	return buildNNResult(n, known, via, make([]bool, n)).Routing
}

func TestForestClimbMarksRootPaths(t *testing.T) {
	g := gen.Grid(7, 7)
	roots := map[int]bool{0: true, 24: true, 48: true}
	depth := int32(5)
	sim := runSim(t, g, NewBFSForest(func(v int) bool { return roots[v] }, depth),
		ForestRounds(depth), congest.EngineSequential)
	forest := ExtractForest(sim)

	// Starters: a few spanned vertices far from roots.
	const forestKey = int64(-7)
	rt := NewForestRouting(forest.ParentPort, forestKey)
	start := make([][]int64, g.N())
	var starters []int
	for v := 0; v < g.N(); v++ {
		if forest.Dist[v] == depth {
			start[v] = []int64{forestKey}
			starters = append(starters, v)
		}
	}
	if len(starters) == 0 {
		t.Fatal("no starters at full depth")
	}
	csim, err := congest.NewUniform(g, NewClimb(rt, start), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csim.RunUntilQuiet(ClimbMaxRounds(1, int(depth))); err != nil {
		t.Fatal(err)
	}
	edges := edgeset.NewSet(g.N())
	ExtractClimbEdges(csim, edges)
	// Every starter's full parent path must be marked.
	for _, s := range starters {
		v := s
		for forest.ParentPort[v] >= 0 {
			u := g.Neighbor(v, forest.ParentPort[v])
			if !edges.Contains(v, u) {
				t.Fatalf("edge %d-%d on %d's root path not marked", v, u, s)
			}
			v = u
		}
		if !roots[v] {
			t.Fatalf("starter %d's path ended at non-root %d", s, v)
		}
	}
	// No unrelated edges: every marked edge is a forest parent edge.
	for eu, ev := range edges.All() {
		u, v := int(eu), int(ev)
		okUV := forest.ParentPort[u] >= 0 && g.Neighbor(u, forest.ParentPort[u]) == v
		okVU := forest.ParentPort[v] >= 0 && g.Neighbor(v, forest.ParentPort[v]) == u
		if !okUV && !okVU {
			t.Errorf("marked edge %d-%d is not a forest edge", u, v)
		}
	}
}

func TestKeyedClimbTracesToCenters(t *testing.T) {
	g := gen.Grid(8, 8)
	centers := nnCenters(g, 1)
	res := runNN(t, g, centers, 12, 3, congest.EngineSequential)

	start := make([][]int64, g.N())
	var expect [][2]int // (from, to) pairs that must be connected
	for _, c := range centers {
		if res.Popular[c] {
			continue
		}
		targets, _ := res.Known(c)
		start[c] = targets
		for _, target := range targets {
			expect = append(expect, [2]int{c, int(target)})
		}
	}
	if len(expect) == 0 {
		t.Fatal("nothing to trace")
	}
	csim, err := congest.NewUniform(g, NewClimb(&res.Routing, start), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csim.RunUntilQuiet(ClimbMaxRounds(8, 10)); err != nil {
		t.Fatal(err)
	}
	edges := edgeset.NewSet(g.N())
	ExtractClimbEdges(csim, edges)
	// Build the marked subgraph and verify connectivity at exact distance.
	h := edges.Graph()
	for _, pair := range expect {
		want, _ := res.DistTo(pair[0], int64(pair[1]))
		if got := h.Distance(pair[0], pair[1]); got != want {
			t.Errorf("traced pair %v: distance in marked subgraph %d, want %d", pair, got, want)
		}
	}
}

func TestClimbRespectsBandwidth(t *testing.T) {
	// Many keys through one bottleneck vertex: queues must serialize
	// without violating bandwidth (Run returns error on violation).
	g := gen.Star(20)
	via := make([]map[int64]int, g.N())
	start := make([][]int64, g.N())
	// Leaves 1..9 each trace to leaf 19 via hub 0.
	hubPortTo19 := g.PortOf(0, 19)
	for leaf := 1; leaf < 10; leaf++ {
		via[leaf] = map[int64]int{19: g.PortOf(leaf, 0)}
		start[leaf] = []int64{19}
	}
	via[0] = map[int64]int{19: hubPortTo19}
	rt := buildRouting(g.N(), via)
	csim, err := congest.NewUniform(g, NewClimb(&rt, start), congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csim.RunUntilQuiet(100); err != nil {
		t.Fatalf("climb violated bandwidth: %v", err)
	}
	edges := edgeset.NewSet(g.N())
	ExtractClimbEdges(csim, edges)
	if !edges.Contains(0, 19) {
		t.Error("hub-to-target edge not marked")
	}
	if edges.Len() != 10 {
		t.Errorf("marked %d edges, want 10", edges.Len())
	}
}

// --- Adversarial delivery order: protocol outputs must not depend on
// the order messages are presented within a round ---

func TestProtocolsOrderIndependent(t *testing.T) {
	g := gen.GNP(50, 0.12, 23, true)
	centers := nnCenters(g, 2)
	isC := make(map[int]bool)
	for _, c := range centers {
		isC[c] = true
	}
	deg, delta := 4, int32(3)

	runWith := func(delivery congest.DeliveryOrder) (NNResult, []int, ForestResult) {
		opts := congest.Options{Delivery: delivery}
		simNN, err := congest.NewUniform(g,
			NewNearNeighbors(func(v int) bool { return isC[v] }, deg, delta), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := simNN.Run(NearNeighborsRounds(deg, delta)); err != nil {
			t.Fatal(err)
		}
		nn := ExtractNN(simNN)

		simRS, err := congest.NewUniform(g,
			NewRulingSet(func(v int) bool { return isC[v] }, 3, 2, g.N()), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := simRS.Run(RulingSetRounds(3, 2, g.N())); err != nil {
			t.Fatal(err)
		}
		rs := ExtractRulingSet(simRS)

		simF, err := congest.NewUniform(g,
			NewBFSForest(func(v int) bool { return v%9 == 0 }, 5), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := simF.Run(ForestRounds(5)); err != nil {
			t.Fatal(err)
		}
		return nn, rs, ExtractForest(simF)
	}

	nnA, rsA, fA := runWith(congest.DeliverPortAscending)
	nnB, rsB, fB := runWith(congest.DeliverPortDescending)

	for v := 0; v < g.N(); v++ {
		aKeys, aDist := nnA.Known(v)
		bKeys, bDist := nnB.Known(v)
		if len(aKeys) != len(bKeys) || nnA.Popular[v] != nnB.Popular[v] {
			t.Fatalf("NN order-dependent at vertex %d", v)
		}
		for i, c := range aKeys {
			aPort, _ := nnA.Port(v, c)
			bPort, _ := nnB.Port(v, c)
			if bKeys[i] != c || bDist[i] != aDist[i] || bPort != aPort {
				t.Errorf("NN order-dependent at vertex %d center %d", v, c)
			}
		}
		if fA.Dist[v] != fB.Dist[v] || fA.Root[v] != fB.Root[v] || fA.ParentPort[v] != fB.ParentPort[v] {
			t.Errorf("forest order-dependent at vertex %d", v)
		}
	}
	if len(rsA) != len(rsB) {
		t.Fatalf("ruling set order-dependent: %v vs %v", rsA, rsB)
	}
	for i := range rsA {
		if rsA[i] != rsB[i] {
			t.Errorf("ruling set order-dependent: %v vs %v", rsA, rsB)
		}
	}
}

func TestClimbOrderIndependentEdges(t *testing.T) {
	g := gen.Grid(7, 7)
	centers := nnCenters(g, 1)
	res := runNN(t, g, centers, 10, 3, congest.EngineSequential)
	start := make([][]int64, g.N())
	for _, c := range centers {
		if res.Popular[c] {
			continue
		}
		targets, _ := res.Known(c)
		start[c] = targets
	}
	edgesFor := func(delivery congest.DeliveryOrder) *edgeset.Set {
		sim, err := congest.NewUniform(g, NewClimb(&res.Routing, start), congest.Options{Delivery: delivery})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunUntilQuiet(ClimbMaxRounds(10, 4)); err != nil {
			t.Fatal(err)
		}
		edges := edgeset.NewSet(g.N())
		ExtractClimbEdges(sim, edges)
		return edges
	}
	a := edgesFor(congest.DeliverPortAscending)
	b := edgesFor(congest.DeliverPortDescending)
	if a.Len() != b.Len() {
		t.Fatalf("climb edge sets differ in size: %d vs %d", a.Len(), b.Len())
	}
	for u, v := range a.All() {
		if !b.Contains(int(u), int(v)) {
			t.Errorf("climb edge {%d,%d} only under ascending delivery", u, v)
		}
	}
}

// --- Round budgets are tight enough: extra rounds change nothing ---

func TestNNRoundBudgetSufficient(t *testing.T) {
	g := gen.Grid(6, 6)
	centers := nnCenters(g, 2)
	isC := make(map[int]bool)
	for _, c := range centers {
		isC[c] = true
	}
	deg, delta := 3, int32(4)
	factory := NewNearNeighbors(func(v int) bool { return isC[v] }, deg, delta)

	exact := runSim(t, g, factory, NearNeighborsRounds(deg, delta), congest.EngineSequential)
	extra := runSim(t, g, factory, NearNeighborsRounds(deg, delta)+2*(deg+1), congest.EngineSequential)
	a, b := ExtractNN(exact), ExtractNN(extra)
	for v := 0; v < g.N(); v++ {
		if a.Count(v) != b.Count(v) {
			t.Errorf("v%d: budget run knows %d, longer run knows %d — budget too small",
				v, a.Count(v), b.Count(v))
		}
	}
}
