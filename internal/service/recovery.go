package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/graph"
)

// Boot-time recovery replays the journal into live server state. The
// invariant it restores is exactly what a crash-free daemon would
// show: every accepted job reappears under its original id — done jobs
// with their spanner, result document, and query pool; failed and
// cancelled jobs with their terminal error; jobs that were queued or
// mid-build when the process died re-enter the build queue and run to
// completion. Determinism makes this sound: the journal holds only
// inputs (spec + deltas) and expected outcomes (fingerprints), and the
// construction reproduces any spanner bit-identically from its inputs,
// so even a corrupt snapshot costs a rebuild, never a wrong answer.
//
// Recovery generates no input graph it does not need. A job comes back
// with the graph's size from its accepted record and deltas, and its
// graph is materialized on first use (see (*Server).input): by its
// first PATCH, by the worker that runs a re-enqueued build, or by the
// rebuild that replaces a corrupt snapshot. Only an accepted record
// without sizes, written by an older binary, has its graph generated
// at boot, as that binary did.
//
// Replay folds the journal per job, then hands the folded outcome to
// the same (*Server).apply live operation uses, with journaling off:
// memory and the job-state counters come out exactly as if the events
// had just happened, and the replay itself writes no record, so a crash
// during recovery replays again from the same journal. Only a rebuilt
// spanner is written back, as its snapshot. Re-enqueued jobs run as
// live jobs and journal their outcome like any other.
//
// Recovery runs on its own goroutine so the HTTP listener can come up
// immediately: /healthz answers 200 (the process is alive) while
// /readyz answers 503 until replay completes — the signal a load
// balancer uses to keep traffic off a still-recovering instance.
// Submissions and patches shed with 503 until ready; job ids are
// allocated only after the journal's id space is known.

// journaledJob is one job's folded journal history.
type journaledJob struct {
	id        string
	spec      JobSpec
	n, m      int // the input graph's size at acceptance; 0 in an older record
	submitted time.Time
	deltas    []deltaData
	done      *JobResult
	failed    *JobError
	finished  time.Time
}

func (s *Server) recoverLoop() {
	defer s.bg.Done()
	defer s.markReady()
	if s.recoverGate != nil {
		<-s.recoverGate
	}
	s.replayJournal()
}

func (s *Server) replayJournal() {
	byID := make(map[string]*journaledJob)
	var order []*journaledJob
	maxID := 0
	for _, rec := range s.st.Recovered() {
		at, _ := time.Parse(time.RFC3339Nano, rec.Time)
		switch rec.Type {
		case recAccepted:
			var d acceptedData
			if err := json.Unmarshal(rec.Data, &d); err != nil {
				continue
			}
			jj := &journaledJob{id: rec.Job, spec: d.Spec, n: d.GraphN, m: d.GraphM, submitted: at}
			byID[rec.Job] = jj
			order = append(order, jj)
			var n int
			if _, err := fmt.Sscanf(rec.Job, "j%d", &n); err == nil && n > maxID {
				maxID = n
			}
		case recDone:
			var d doneData
			if jj := byID[rec.Job]; jj != nil && json.Unmarshal(rec.Data, &d) == nil && d.Result != nil {
				jj.done = d.Result
				jj.finished = at
			}
		case recDelta:
			var d deltaData
			if jj := byID[rec.Job]; jj != nil && jj.done != nil && json.Unmarshal(rec.Data, &d) == nil && d.Result != nil {
				jj.deltas = append(jj.deltas, d)
			}
		case recFailed:
			var d failedData
			if jj := byID[rec.Job]; jj != nil && json.Unmarshal(rec.Data, &d) == nil && d.Error != nil {
				jj.failed = d.Error
				jj.finished = at
			}
		}
	}
	s.mu.Lock()
	if s.nextID < maxID {
		s.nextID = maxID
	}
	s.mu.Unlock()
	for _, jj := range order {
		s.restoreJob(jj)
	}
}

func (s *Server) restoreJob(jj *journaledJob) {
	drop := func(err error) {
		// Specs are validated before they are journaled, so this means
		// the journal predates an incompatible spec change. Drop the job,
		// but visibly.
		s.met.recoveredDropped.Add(1)
		log.Printf("spannerd: recovery dropped job %s: journaled spec no longer validates: %v", jj.id, err)
	}
	// Journaled batches were normalized and checked against the graph
	// they patched, so each changes m by exactly |Insert| − |Delete|.
	n, m := jj.n, jj.m
	for _, d := range jj.deltas {
		m += len(d.Insert) - len(d.Delete)
	}
	var g *graph.Graph
	var generate time.Duration
	if n == 0 {
		start := time.Now()
		var err error
		if g, err = materialize(jj.spec.Graph, jj.deltas); err != nil {
			drop(err)
			return
		}
		n, m, generate = g.N(), g.M(), time.Since(start)
	}
	job, err := jobOf(jj.id, jj.spec, n, m, s.opts.DefaultTimeout, s.opts.MaxTimeout, jj.submitted)
	if err != nil {
		drop(err)
		return
	}
	job.g, job.generate = g, generate
	if g == nil {
		job.pending = jj.deltas
	}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	switch {
	case jj.failed != nil:
		s.apply(job, jobEvent{kind: recFailed, at: jj.finished, err: jj.failed, replay: true})
		s.met.recoveredTerminal.Add(1)
	case jj.done != nil:
		s.restoreDone(job, jj)
	default:
		// Queued or mid-build at the crash: run it again. The rebuilt
		// spanner is bit-identical to what the lost build would have
		// produced, so from the client's view the job merely took
		// longer.
		s.met.recoveredRequeue.Add(1)
		s.enqueueRecovered(job)
	}
}

// restoreDone brings a completed job back with its latest journaled
// result and its spanner: from the snapshot when it verifies, or from
// a deterministic rebuild of the journaled inputs when it does not.
// Only that rebuild needs the input graph; a job served from its
// snapshot leaves the graph to its first PATCH. A recovery that fails
// leaves the job failed in memory but journals nothing, so the next
// boot retries it.
func (s *Server) restoreDone(job *Job, jj *journaledJob) {
	fail := func(jerr *JobError) {
		s.apply(job, jobEvent{kind: recFailed, err: jerr, replay: true})
	}
	res := jj.done
	if len(jj.deltas) > 0 {
		res = jj.deltas[len(jj.deltas)-1].Result
	}
	ev := jobEvent{kind: recDone, at: jj.finished, res: res, replay: true}

	if spanner, err := s.st.LoadSnapshot(job.ID, res.Fingerprint); err == nil {
		// Snapshot reload carries no rebuild state: the first PATCH takes
		// the full-build path.
		ev.spanner = spanner
		s.apply(job, ev)
		s.met.recoveredSnapshot.Add(1)
		return
	} else if !errors.Is(err, fs.ErrNotExist) {
		// A snapshot that exists but fails checksum or fingerprint
		// verification. (A missing file is the benign crash window
		// between journal record and snapshot install, not corruption.)
		s.met.snapshotCorruptions.Add(1)
	}

	// Deterministic rebuild from the journaled inputs, verified against
	// the journaled fingerprint; apply re-snapshots it, so the next boot
	// is fast again. Drain during boot interrupts it like any build.
	g, err := s.input(job)
	if err != nil {
		fail(&JobError{Kind: "error", Message: "recovery: " + err.Error(), HTTPStatus: 500})
		return
	}
	built, got, err := s.build(s.buildCtx, job, func(ctx context.Context) (*core.Result, error) {
		return core.Build(ctx, g, job.p, s.buildOptions(job))
	})
	if err != nil {
		fail(classifyErr(err))
		return
	}
	if got.Fingerprint != res.Fingerprint || got.Edges != res.Edges {
		fail(&JobError{
			Kind: "error",
			Message: fmt.Sprintf("recovery: rebuilt spanner is (m=%d, %s), journal records (m=%d, %s)",
				got.Edges, got.Fingerprint, res.Edges, res.Fingerprint),
			HTTPStatus: 500,
		})
		return
	}
	ev.build = built
	s.apply(job, ev)
	s.met.recoveredRebuild.Add(1)
}

// enqueueRecovered feeds an interrupted job back into the build queue,
// yielding to a concurrent drain exactly like Submit does.
func (s *Server) enqueueRecovered(job *Job) {
	const msg = "cancelled: server draining before recovered build restarted"
	select {
	case <-s.drainCh:
		s.apply(job, cancelledEvent(msg))
		return
	default:
	}
	select {
	case s.queue <- job:
	case <-s.drainCh:
		s.apply(job, cancelledEvent(msg))
	}
}
