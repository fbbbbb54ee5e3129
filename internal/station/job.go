package station

import (
	"context"
	"sync"
	"time"

	"repro"
)

// JobState is the lifecycle of one admitted query job.
type JobState int

// Job lifecycle: Queued -> Running -> one of {Done, Failed, Canceled}.
// Cancel while queued jumps straight to Canceled without costing an epoch.
const (
	JobQueued JobState = iota
	JobRunning
	JobDone
	JobFailed
	JobCanceled
)

// String names the state for logs and wire payloads.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Job is one admitted query: submit, optionally poll or wait, read the
// answer. All methods are safe for concurrent use.
type Job struct {
	id        string
	requestID string // correlates with the originating HTTP request
	spec      QuerySpec
	seed      int64 // effective seed (template resolved at Submit)
	st        *Station
	ctx       context.Context
	cancel    context.CancelCauseFunc
	timerStop context.CancelFunc // releases the timeout timer, if any

	mu        sync.Mutex
	state     JobState
	worker    int
	answer    repro.QueryAnswer
	err       error
	submitted time.Time
	started   time.Time
	finished  time.Time
	queueWait time.Duration // pinned at worker pickup; 0 while queued

	done chan struct{}
}

// ID is the job's handle ("job-17").
func (j *Job) ID() string { return j.id }

// Seed returns the effective seed the job runs under: the spec's explicit
// seed when one was given (including an explicit 0), else the deployment
// template's.
func (j *Job) Seed() int64 { return j.seed }

// RequestID returns the correlation id the job was admitted under — the
// originating request's X-Agg-Request-Id, or the job id itself for work
// with no HTTP origin (scheduled epochs).
func (j *Job) RequestID() string { return j.requestID }

// Worker returns the pool slot running (or having run) the job, -1 while
// queued.
func (j *Job) Worker() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.worker
}

// QueueWait returns the admission→pickup wait, pinned when a worker takes
// the job (0 while still queued).
func (j *Job) QueueWait() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queueWait
}

// RunTime returns the pickup→finish execution time (0 until finished, and
// for jobs that never ran).
func (j *Job) RunTime() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started)
}

// Err returns the job's terminal error (nil while unfinished or done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Finished reports whether the job has reached a terminal state.
func (j *Job) Finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx expires, then returns the
// answer (or the job's terminal error).
func (j *Job) Wait(ctx context.Context) (repro.QueryAnswer, error) {
	select {
	case <-ctx.Done():
		return repro.QueryAnswer{}, ctx.Err()
	case <-j.done:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.answer, j.err
}

// Cancel requests cancellation. A job still queued finishes as canceled
// immediately and never costs an epoch; a running job's epoch completes
// (simulation rounds are not interruptible) but its result is discarded
// and the job finishes canceled. Cancel is idempotent and safe to race
// with completion — whoever finishes the job first wins.
func (j *Job) Cancel() {
	j.cancel(context.Canceled)
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued && j.settle(repro.QueryAnswer{}, context.Canceled) {
		j.st.cancelFinished(j)
		j.publish()
	}
}

func (j *Job) setRunning(worker int) {
	j.mu.Lock()
	j.state = JobRunning
	j.worker = worker
	j.started = time.Now()
	j.queueWait = j.started.Sub(j.submitted)
	j.mu.Unlock()
}

// settle moves the job to its terminal state exactly once; the first
// caller wins and the return value reports whether this call did it. The
// winner must then call publish, which releases the waiters: in between,
// the station counts the outcome, so a client that sees the job finished
// also sees it in agg_station_jobs_total on /metricsz.
func (j *Job) settle(ans repro.QueryAnswer, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCanceled {
		return false
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state, j.answer = JobDone, ans
	case context.Cause(j.ctx) == context.Canceled || err == context.Canceled:
		j.state, j.err = JobCanceled, err
	default:
		j.state, j.err = JobFailed, err
	}
	j.timerStop()
	return true
}

// publish releases everyone waiting on a settled job.
func (j *Job) publish() { close(j.done) }

// JobStatus is the wire view of a job — what GET /v1/jobs/{id} returns and
// what a sync POST /v1/query responds with once the job finishes.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Seed is the effective seed the job runs under. It is always present:
	// an explicit seed 0 is a valid, distinct epoch stream and must not be
	// dropped from the wire view.
	Seed        int64     `json:"seed"`
	State       string    `json:"state"`
	Worker      int       `json:"worker"` // -1 until running
	RequestID   string    `json:"request_id,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	QueuedMs    float64   `json:"queued_ms"`
	// QueueWaitMs is the admission→pickup wait pinned at worker pickup —
	// unlike QueuedMs it never keeps growing for a live job, so it is the
	// stable value the queue-wait histogram records. 0 while still queued.
	QueueWaitMs float64            `json:"queue_wait_ms,omitempty"`
	RanMs       float64            `json:"ran_ms,omitempty"`
	Answer      *repro.QueryAnswer `json:"answer,omitempty"`
	Summary     string             `json:"summary,omitempty"` // QueryAnswer.String()
	Error       string             `json:"error,omitempty"`
}

// Status snapshots the job for serialization.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Kind:        j.spec.Kind.String(),
		Seed:        j.seed,
		State:       j.state.String(),
		Worker:      j.worker,
		RequestID:   j.requestID,
		SubmittedAt: j.submitted,
		QueueWaitMs: ms(j.queueWait),
	}
	switch j.state {
	case JobQueued:
		st.QueuedMs = ms(time.Since(j.submitted))
	case JobRunning:
		st.QueuedMs = ms(j.started.Sub(j.submitted))
		st.RanMs = ms(time.Since(j.started))
	default:
		if j.started.IsZero() { // finished without ever running
			st.QueuedMs = ms(j.finished.Sub(j.submitted))
		} else {
			st.QueuedMs = ms(j.started.Sub(j.submitted))
			st.RanMs = ms(j.finished.Sub(j.started))
		}
	}
	if j.state == JobDone {
		ans := j.answer
		st.Answer = &ans
		st.Summary = ans.String()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
