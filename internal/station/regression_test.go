package station

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestSyncQueryJobDeadlineIsFailedNotAborted is the regression gate for
// the sync-query error conflation bug: a job whose OWN deadline expires
// mid-epoch must come back as 504 with state "failed" — the job's terminal
// status — not the 503 "request aborted" reserved for a dead client.
func TestSyncQueryJobDeadlineIsFailedNotAborted(t *testing.T) {
	st, srv := newTestServer(t, testConfig(1, 4))
	started, release := blockWorkers(st)
	go func() {
		j := <-started // the sync job is mid-epoch
		<-j.ctx.Done() // its 40ms budget expires while parked
		close(release) // epoch completes, result discarded as expired
	}()
	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","timeout_ms":40}`)
	st.setRunningHook(nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d body %s, want 504", resp.StatusCode, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	if js.State != "failed" {
		t.Errorf("state = %q, want failed", js.State)
	}
	if !strings.Contains(js.Error, "deadline") {
		t.Errorf("error = %q, want the job's deadline error", js.Error)
	}
	if strings.Contains(string(data), "request aborted") {
		t.Errorf("job timeout misreported as client abort: %s", data)
	}
}

// TestStatszCountsSyncQueryOnReturn is the regression gate for the
// finish-ordering race: the station used to release a job's waiters before
// counting its outcome, so a client reading /statsz right after its sync
// query returned could find the query missing from completed.
func TestStatszCountsSyncQueryOnReturn(t *testing.T) {
	_, srv := newTestServer(t, testConfig(2, 8))
	for i := int64(1); i <= 20; i++ {
		if resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: %d %s", i, resp.StatusCode, data)
		}
		var stats Stats
		getJSON(t, srv.URL+"/statsz", &stats)
		if stats.Completed != i {
			t.Fatalf("/statsz right after sync query %d: completed = %d", i, stats.Completed)
		}
	}
}

// TestSyncQueryClientAbortStillCancels covers the other side of the same
// seam: when the CLIENT disappears, the handler must still cancel the job
// rather than leak the epoch's result into a finished job nobody owns.
func TestSyncQueryClientAbortStillCancels(t *testing.T) {
	st, srv := newTestServer(t, testConfig(1, 4))
	started, release := blockWorkers(st)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(`{"kind":"sum"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	job := <-started // the sync job is mid-epoch
	cancel()         // client walks away
	if err := <-errc; err == nil {
		t.Fatal("client saw a response despite canceling")
	}
	// The handler must cancel the job on abort; once its cancellation has
	// landed on the job context, let the parked epoch complete — its result
	// is discarded and the job terminates canceled.
	<-job.ctx.Done()
	close(release)
	st.setRunningHook(nil)
	<-job.Done()
	if job.State() != JobCanceled {
		t.Fatalf("job state = %v, want canceled after client abort", job.State())
	}
}

// TestRetryAfterHeaderAgreesWithHint is the backpressure-contract gate:
// the Retry-After header (whole seconds) and the retry_after_ms JSON hint
// must be derived from the same constant — the header is the hint rounded
// UP to seconds, never an unrelated number.
func TestRetryAfterHeaderAgreesWithHint(t *testing.T) {
	st, srv := newTestServer(t, testConfig(1, 1))
	started, release := blockWorkers(st)
	defer func() { close(release); st.setRunningHook(nil) }()

	if resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, data)
	}
	<-started
	if resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"count","async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, data)
	}
	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"max","async":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full-queue status = %d, want 503", resp.StatusCode)
	}
	secs, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64)
	if err != nil {
		t.Fatalf("Retry-After %q is not whole seconds: %v", resp.Header.Get("Retry-After"), err)
	}
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if e.RetryAfterMs <= 0 {
		t.Fatalf("retry_after_ms = %d, want > 0", e.RetryAfterMs)
	}
	if want := (e.RetryAfterMs + 999) / 1000; secs != want {
		t.Errorf("Retry-After = %ds but retry_after_ms = %dms (ceil %ds): hints contradict",
			secs, e.RetryAfterMs, want)
	}
	if e.RetryAfterMs != retryAfterMs || time.Duration(e.RetryAfterMs)*time.Millisecond != retryAfter {
		t.Errorf("wire hint %dms detached from the retryAfter constant %v", e.RetryAfterMs, retryAfter)
	}
}

// TestSameKindSchedulesServeDistinctEpochs is the seed-aliasing gate: two
// schedules of the same kind on one station must serve DIFFERENT answers
// for the same epoch number, because each schedule's ordinal is folded
// into its epoch seeds. Before the fix both submitted template-seed jobs
// and every epoch pair was byte-identical.
func TestSameKindSchedulesServeDistinctEpochs(t *testing.T) {
	st := newStation(t, testConfig(2, 32))
	a, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: 3 * time.Millisecond, Jitter: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.AddSchedule(ScheduleSpec{Kind: repro.QuerySum, Period: 3 * time.Millisecond, Jitter: 0})
	if err != nil {
		t.Fatal(err)
	}
	firstAnswer := func(sc *Schedule) *repro.QueryAnswer {
		for _, r := range sc.Results() {
			if r.Epoch == 1 && r.Answer != nil {
				return r.Answer
			}
		}
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	var ansA, ansB *repro.QueryAnswer
	for ansA == nil || ansB == nil {
		if time.Now().After(deadline) {
			t.Fatalf("schedules never served epoch 1: a=%v b=%v", ansA, ansB)
		}
		ansA, ansB = firstAnswer(a), firstAnswer(b)
		time.Sleep(2 * time.Millisecond)
	}
	st.RemoveSchedule(a.ID())
	st.RemoveSchedule(b.ID())
	if *ansA == *ansB {
		t.Errorf("same-kind schedules served byte-identical epoch 1: %v — ordinals not folded into seeds", *ansA)
	}
	// The seed streams themselves must be disjoint per ordinal.
	for epoch := int64(1); epoch <= 3; epoch++ {
		if epochSeed(7, 1, epoch) == epochSeed(7, 2, epoch) {
			t.Errorf("epoch %d collides across ordinals", epoch)
		}
	}
}

// TestExplicitSeedZeroIsServeable is the seed-representability gate: seed
// 0 must be an addressable stream — submitted explicitly it runs (not
// silently swapped for the template), the wire echoes seed 0, and the
// answer matches the offline deployment reset to 0.
func TestExplicitSeedZeroIsServeable(t *testing.T) {
	cfg := testConfig(1, 8)
	_, srv := newTestServer(t, cfg)

	dep, err := repro.NewDeployment(cfg.Deploy)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Reset(0); err != nil {
		t.Fatal(err)
	}
	want, err := dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Reset(cfg.Deploy.Seed); err != nil {
		t.Fatal(err)
	}
	templateAns, err := dep.RunQuery(repro.QuerySum, repro.ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","seed":0}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed-0 query: %d %s", resp.StatusCode, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	if js.Seed != 0 {
		t.Errorf("wire seed = %d, want the explicit 0", js.Seed)
	}
	if js.Answer == nil || *js.Answer != want {
		t.Errorf("seed-0 answer = %v, want offline seed-0 result %v", js.Answer, want)
	}
	if js.Answer != nil && *js.Answer == templateAns {
		t.Error("explicit seed 0 still aliases the template seed")
	}
	// And the JSON seed field must survive a marshal round-trip even at 0
	// (it used to be omitempty, which drops exactly that value).
	if !strings.Contains(string(data), `"seed": 0`) {
		t.Errorf("seed 0 dropped from the wire payload: %s", data)
	}
	// An unseeded query still inherits the template stream.
	resp2, data2 := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum"}`)
	var js2 JobStatus
	if err := json.Unmarshal(data2, &js2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || js2.Seed != cfg.Deploy.Seed {
		t.Errorf("unseeded query seed = %d, want template %d", js2.Seed, cfg.Deploy.Seed)
	}
	if js2.Answer == nil || *js2.Answer != templateAns {
		t.Errorf("unseeded answer diverged from template: %v != %v", js2.Answer, templateAns)
	}
}
