package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/oracle"
	"nearspan/internal/store"
)

// Every job-state change is one jobEvent passed through (*Server).apply,
// the single transition for memory, journal and metrics. The journaled
// kinds are the record types; because every build is deterministic,
// the accepted spec plus the applied delta batches reproduce any
// spanner bit-identically, so terminal records and snapshots are
// acceleration, not truth.
//
//	event     journal record   memory effect                counters                snapshot
//	accepted  spec + graph n,m none (Submit then enqueues)  —                       —
//	running   —                running, started, cancel     —                       —
//	done      result           done, result, query pool     done                    spanner
//	delta     batch + result   graph, result, pool swapped  rebuilds (+ fallbacks)  spanner
//	failed    error            failed | cancelled           failed | cancelled      —
//
// One rule orders them: journal, then apply. A live event's record is
// durable before any reader can observe the event. The snapshot is a
// cache of a journaled spanner, installed once the event is visible; a
// crash before it lands costs a deterministic rebuild at the next boot.
// Boot replay folds the journal per job (accepted alone → re-enqueue;
// +done (+deltas) → reload snapshot or rebuild; +failed → restore the
// terminal error) and feeds the folded outcome through the same apply
// with journaling off. It restores the input graph's size from the
// accepted record and the deltas, not the graph: input materializes
// that on first use.
const (
	recAccepted = "accepted"
	recDone     = "done"
	recDelta    = "delta"
	recFailed   = "failed"
	evRunning   = "running" // in memory only
)

// acceptedData is the accepted record: the spec and the input graph's
// size, which lets recovery restore the job without generating the
// graph. A record without sizes was written by an older binary.
type acceptedData struct {
	Spec   JobSpec `json:"spec"`
	GraphN int     `json:"graph_n,omitempty"`
	GraphM int     `json:"graph_m,omitempty"`
}

type doneData struct {
	Result *JobResult `json:"result"`
}

type failedData struct {
	Error *JobError `json:"error"`
}

type deltaData struct {
	Seq    int        `json:"seq"`
	Insert [][2]int32 `json:"insert,omitempty"`
	Delete [][2]int32 `json:"delete,omitempty"`
	Result *JobResult `json:"result"`
}

func edgePairs(es []delta.Edge) [][2]int32 {
	if len(es) == 0 {
		return nil
	}
	out := make([][2]int32, len(es))
	for i, e := range es {
		out[i] = [2]int32{e.U, e.V}
	}
	return out
}

func edgeList(ps [][2]int32) []delta.Edge {
	if len(ps) == 0 {
		return nil
	}
	out := make([]delta.Edge, len(ps))
	for i, p := range ps {
		out[i] = delta.Edge{U: p[0], V: p[1]}
	}
	return out
}

// batch is the record's normalized batch.
func (d deltaData) batch() *delta.Batch {
	return &delta.Batch{Insert: edgeList(d.Insert), Delete: edgeList(d.Delete)}
}

// jobEvent is one job-state change. kind selects which fields apply.
type jobEvent struct {
	kind string
	at   time.Time // zero means now

	cancel context.CancelFunc // running: the build context's cancel

	res     *JobResult   // done, delta
	build   *core.Result // done, delta: a fresh build with its rebuild state; nil after a snapshot reload
	spanner *graph.Graph // done: the reloaded snapshot when build is nil
	g       *graph.Graph // delta: the job's input graph from now on
	batch   *delta.Batch // delta: the normalized batch

	err *JobError // failed

	// replay marks boot recovery: the journal already holds the event
	// (or, for a failed recovery, deliberately does not), so apply
	// journals nothing.
	replay bool
}

// errCancelledBeforeStart is apply's answer to a running event for a
// job whose cancellation was requested while it was queued.
var errCancelledBeforeStart = errors.New("cancelled before build started")

func cancelledEvent(msg string) jobEvent {
	return jobEvent{kind: recFailed, err: &JobError{Kind: "cancelled", Message: msg, HTTPStatus: 409}}
}

// apply is the one job-state transition. In order, it journals the
// event (live events on a store-backed server), mutates the job under
// j.mu, bumps the job-state counters, closes Done() for a terminal
// event — so a waiter observes all of the above — and installs a
// freshly built spanner as the job's snapshot. Callers hold
// job.patchMu across done and delta events (or run before the server
// is ready), so one job's snapshot writes never overlap. A persistence
// error degrades the store but the event still applies, except for
// accepted: its error is returned so Submit refuses the job. A running
// event for an already-cancelled job changes nothing and returns
// errCancelledBeforeStart.
func (s *Server) apply(job *Job, ev jobEvent) error {
	if ev.at.IsZero() {
		ev.at = time.Now()
	}
	if s.st != nil && !ev.replay && ev.kind != evRunning {
		if err := s.journal(job, ev); err != nil && ev.kind == recAccepted {
			return err
		}
	}
	spanner := ev.spanner
	if ev.build != nil {
		spanner = ev.build.Spanner
	}
	var pool *oracle.Pool
	if spanner != nil {
		pool = s.poolFor(spanner)
	}

	job.mu.Lock()
	switch ev.kind {
	case evRunning:
		if job.cancelSeen {
			job.mu.Unlock()
			return errCancelledBeforeStart
		}
		job.state = StateRunning
		job.started = ev.at
		job.cancel = ev.cancel
	case recDone, recDelta:
		// The old pool is not closed: it owns no goroutines, and queries
		// in flight on it finish against their immutable old spanner.
		if ev.kind == recDelta {
			job.g = ev.g
			job.m += len(ev.batch.Insert) - len(ev.batch.Delete)
		}
		job.result = ev.res
		job.pool = pool
		job.buildRes = ev.build
		if ev.kind == recDone {
			job.state = StateDone
			job.finished = ev.at
		}
	case recFailed:
		job.state = StateFailed
		if ev.err.Kind == "cancelled" {
			job.state = StateCancelled
		}
		job.jobErr = ev.err
		job.finished = ev.at
	}
	job.mu.Unlock()

	switch ev.kind {
	case recDone:
		s.met.done.Add(1)
	case recDelta:
		s.met.rebuilds.Add(1)
		if !ev.res.Incremental {
			s.met.rebuildFallbacks.Add(1)
		}
	case recFailed:
		if ev.err.Kind == "cancelled" {
			s.met.cancelled.Add(1)
		} else {
			s.met.failed.Add(1)
		}
	}
	if ev.kind == recDone || ev.kind == recFailed {
		close(job.done)
	}
	if s.st != nil && ev.build != nil {
		s.st.WriteSnapshot(job.ID, ev.res.Fingerprint, ev.build.Spanner)
	}
	return nil
}

// journal appends ev's record.
func (s *Server) journal(job *Job, ev jobEvent) error {
	var payload any
	switch ev.kind {
	case recAccepted:
		payload = acceptedData{Spec: job.Spec, GraphN: job.n, GraphM: job.m}
	case recDone, recDelta:
		payload = doneData{Result: ev.res}
		if ev.kind == recDelta {
			payload = deltaData{
				Seq:    ev.res.Deltas,
				Insert: edgePairs(ev.batch.Insert),
				Delete: edgePairs(ev.batch.Delete),
				Result: ev.res,
			}
		}
	case recFailed:
		payload = failedData{Error: ev.err}
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("service: marshal %s record: %w", ev.kind, err)
	}
	return s.st.Append(store.Record{
		Type: ev.kind,
		Job:  job.ID,
		Time: ev.at.UTC().Format(time.RFC3339Nano),
		Data: data,
	})
}

// persistStats is the point-in-time persistence state /metrics renders.
type persistStats struct {
	enabled      bool
	journalBytes int64
	readOnly     bool
}

func (s *Server) persistSnapshotStats() persistStats {
	if s.st == nil {
		return persistStats{}
	}
	return persistStats{
		enabled:      true,
		journalBytes: s.st.JournalBytes(),
		readOnly:     s.st.ReadOnly() != nil,
	}
}
