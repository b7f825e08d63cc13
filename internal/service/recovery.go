package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/delta"
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
			jj := &journaledJob{id: rec.Job, spec: d.Spec, submitted: at}
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
				jj.finished = at
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
	job, err := newJob(jj.id, jj.spec, s.opts.DefaultTimeout, s.opts.MaxTimeout, jj.submitted)
	if err != nil && jj.spec.Engine != "" {
		// A data dir written by an older binary may name an engine this
		// one no longer has. Engines are bit-identical and a restored
		// spanner is re-verified against its journaled fingerprint, so
		// the job recovers soundly on the default engine.
		spec := jj.spec
		spec.Engine = ""
		job, err = newJob(jj.id, spec, s.opts.DefaultTimeout, s.opts.MaxTimeout, jj.submitted)
	}
	if err != nil {
		// Specs are validated before they are journaled, so this means
		// the journal predates an incompatible spec change. The job
		// cannot even materialize a graph for its view; drop it, but
		// visibly.
		s.met.recoveredDropped.Add(1)
		log.Printf("spannerd: recovery dropped job %s: journaled spec no longer validates: %v", jj.id, err)
		return
	}
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mu.Unlock()

	switch {
	case jj.failed != nil:
		job.restoreErr(jj.failed, jj.finished)
		if jj.failed.Kind == "cancelled" {
			s.met.cancelled.Add(1)
		} else {
			s.met.failed.Add(1)
		}
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

// restoreDone brings a completed job back: the input graph is the
// journaled spec patched by every journaled delta, and the spanner
// comes from the snapshot when it verifies — or from a deterministic
// rebuild of the journaled inputs when it does not.
func (s *Server) restoreDone(job *Job, jj *journaledJob) {
	g := job.g
	res := jj.done
	for _, d := range jj.deltas {
		batch := &delta.Batch{Insert: edgeList(d.Insert), Delete: edgeList(d.Delete)}
		patched, err := delta.Apply(g, batch)
		if err != nil {
			job.restoreErr(&JobError{
				Kind:       "error",
				Message:    fmt.Sprintf("recovery: journaled delta %d does not apply: %v", d.Seq, err),
				HTTPStatus: 500,
			}, time.Now())
			s.met.failed.Add(1)
			return
		}
		g = patched
		res = d.Result
	}

	if spanner, err := s.st.LoadSnapshot(job.ID, res.Fingerprint); err == nil {
		job.restoreDone(g, res, s.poolFor(spanner), nil, jj.finished)
		s.met.recoveredSnapshot.Add(1)
		s.met.done.Add(1)
		return
	} else if !errors.Is(err, fs.ErrNotExist) {
		// A snapshot that exists but fails checksum or fingerprint
		// verification. (A missing file is the benign crash window
		// between journal record and snapshot install, not corruption.)
		s.met.snapshotCorruptions.Add(1)
	}

	// Deterministic rebuild from the journaled inputs, verified against
	// the journaled fingerprint, then re-snapshotted so the next boot is
	// fast again.
	res2, err := core.Build(s.buildCtx, g, job.p, s.buildOptions(job))
	if err != nil {
		// Interrupted (drain during boot) or failed: leave the job
		// failed in memory but journal nothing, so the next boot
		// retries the recovery.
		job.restoreErr(classifyErr(err), time.Now())
		s.met.failed.Add(1)
		return
	}
	m, fp := graph.Fingerprint(res2.Spanner)
	if fp != res.Fingerprint || m != res.Edges {
		job.restoreErr(&JobError{
			Kind: "error",
			Message: fmt.Sprintf("recovery: rebuilt spanner is (m=%d, %s), journal records (m=%d, %s)",
				m, fp, res.Edges, res.Fingerprint),
			HTTPStatus: 500,
		}, time.Now())
		s.met.failed.Add(1)
		return
	}
	s.st.WriteSnapshot(job.ID, fp, res2.Spanner)
	job.restoreDone(g, res, s.newPool(res2), res2, jj.finished)
	s.met.recoveredRebuild.Add(1)
	s.met.done.Add(1)
}

// enqueueRecovered feeds an interrupted job back into the build queue,
// yielding to a concurrent drain exactly like Submit does.
func (s *Server) enqueueRecovered(job *Job) {
	select {
	case <-s.drainCh:
		s.finishCancelled(job, "cancelled: server draining before recovered build restarted")
		return
	default:
	}
	select {
	case s.queue <- job:
	case <-s.drainCh:
		s.finishCancelled(job, "cancelled: server draining before recovered build restarted")
	}
}
