package congest

import (
	"context"
	"errors"
	"slices"
	"testing"

	"nearspan/internal/gen"
)

// scripted runs its script in Init (round 0) and in every Round, and
// records the rounds Round ran in. A nil script halts.
type scripted struct {
	script func(env *Env)
	ran    []int
}

func (p *scripted) Init(env *Env) { p.act(env) }

func (p *scripted) Round(env *Env) {
	p.ran = append(p.ran, env.Round())
	p.act(env)
}

func (p *scripted) act(env *Env) {
	if p.script == nil {
		env.Halt()
		return
	}
	p.script(env)
}

// at returns a script that runs do in round r and halts in every other.
func at(r int, do func(env *Env)) func(env *Env) {
	return func(env *Env) {
		if env.Round() == r {
			do(env)
			return
		}
		env.Halt()
	}
}

// runScripts runs scripts (vertex v runs scripts[v]) on a 3-vertex path
// for rounds rounds and returns the rounds each vertex ran in.
func runScripts(t *testing.T, sc schedule, rounds int, scripts ...func(env *Env)) [][]int {
	t.Helper()
	defer sc.force()()
	progs := make([]Program, 3)
	for v := range progs {
		progs[v] = &scripted{script: scripts[v]}
	}
	sim, err := New(gen.Path(3), progs, sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunContext(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	ran := make([][]int, 3)
	for v := range ran {
		ran[v] = progs[v].(*scripted).ran
	}
	return ran
}

// TestSleepUntilContract pins when a sleeping vertex runs, on every
// schedule (inline and all-dispatched).
func TestSleepUntilContract(t *testing.T) {
	sleep := func(rs ...int) func(env *Env) {
		return func(env *Env) {
			for _, r := range rs {
				env.SleepUntil(r)
			}
		}
	}
	// sender sleeps until round 2 and then sends to vertex 0, which
	// receives the message in round 3.
	sender := func(env *Env) {
		switch env.Round() {
		case 0:
			env.SleepUntil(2)
		case 2:
			_ = env.Send(0, Message{Kind: 1})
			env.Halt()
		default:
			env.Halt()
		}
	}
	cases := []struct {
		name    string
		scripts []func(env *Env)
		want    []int // the rounds vertex 0 runs in
	}{
		{"wakes at r", []func(*Env){at(0, sleep(5)), nil, nil}, []int{5}},
		{"later alarm replaces", []func(*Env){at(0, sleep(4, 7)), nil, nil}, []int{7}},
		{"earlier alarm replaces", []func(*Env){at(0, sleep(7, 4)), nil, nil}, []int{4}},
		{"halt keeps alarm", []func(*Env){at(0, func(env *Env) { env.SleepUntil(4); env.Halt() }), nil, nil}, []int{4}},
		{"past round wakes next", []func(*Env){func(env *Env) {
			if env.Round() == 0 {
				env.SleepUntil(3)
			} else if env.Round() == 3 {
				env.SleepUntil(1)
			} else {
				env.Halt()
			}
		}, nil, nil}, []int{3, 4}},
		{"mail wakes early and clears the alarm", []func(*Env){at(0, sleep(6)), sender, nil}, []int{3}},
		{"re-armed after mail", []func(*Env){func(env *Env) {
			if env.Round() < 6 {
				env.SleepUntil(6)
			} else {
				env.Halt()
			}
		}, sender, nil}, []int{3, 6}},
	}
	for sname, sc := range schedules() {
		for _, c := range cases {
			ran := runScripts(t, sc, 10, c.scripts...)
			if !slices.Equal(ran[0], c.want) {
				t.Errorf("%s/%s: vertex 0 ran in rounds %v, want %v", sname, c.name, ran[0], c.want)
			}
			if len(ran[2]) != 0 {
				t.Errorf("%s/%s: halted vertex 2 ran in rounds %v", sname, c.name, ran[2])
			}
		}
	}
}

// TestSleepUntilQuietAndReset: a pending alarm keeps RunUntilQuiet going
// and counts as active work when the budget runs out, and Reset drops it.
func TestSleepUntilQuietAndReset(t *testing.T) {
	for sname, sc := range schedules() {
		func() {
			defer sc.force()()
			g := gen.Path(3)
			sleeper := func() []Program {
				return []Program{&scripted{script: at(0, func(env *Env) { env.SleepUntil(9) })}, &scripted{}, &scripted{}}
			}
			sim, err := New(g, sleeper(), sc.opts)
			if err != nil {
				t.Fatal(err)
			}
			rounds, err := sim.RunUntilQuietContext(context.Background(), 100)
			if err != nil || rounds != 9 {
				t.Errorf("%s: RunUntilQuiet = (%d, %v), want 9 rounds: the alarm is pending work", sname, rounds, err)
			}
			if ran := sim.Program(0).(*scripted).ran; !slices.Equal(ran, []int{9}) {
				t.Errorf("%s: sleeper ran in rounds %v, want [9]", sname, ran)
			}

			if err := sim.Reset(sleeper()); err != nil {
				t.Fatal(err)
			}
			_, err = sim.RunUntilQuietContext(context.Background(), 5)
			var be *ErrBudgetExhausted
			if !errors.As(err, &be) || be.Active != 1 || be.Pending != 0 {
				t.Errorf("%s: budget cut before the alarm: %v, want ErrBudgetExhausted with 1 active, 0 pending", sname, err)
			}

			// Reset while the alarm is still pending: the new programs
			// never run, and the simulator is quiet at once.
			halting := []Program{&scripted{}, &scripted{}, &scripted{}}
			if err := sim.Reset(halting); err != nil {
				t.Fatal(err)
			}
			if rounds, err := sim.RunUntilQuietContext(context.Background(), 100); err != nil || rounds != 0 {
				t.Errorf("%s: after Reset RunUntilQuiet = (%d, %v), want quiet at once", sname, rounds, err)
			}
			if err := sim.RunContext(context.Background(), 12); err != nil {
				t.Fatal(err)
			}
			for v, p := range halting {
				if ran := p.(*scripted).ran; len(ran) != 0 {
					t.Errorf("%s: vertex %d ran in rounds %v after Reset dropped every alarm", sname, v, ran)
				}
			}
			if sim.Active() != 0 {
				t.Errorf("%s: Active() = %d after a halting run", sname, sim.Active())
			}
		}()
	}
}
