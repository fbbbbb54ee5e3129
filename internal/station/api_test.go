package station

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrapeHTTP GETs /metricsz from a served API and parses it.
func scrapeHTTP(t *testing.T, base string) telemetry.Samples {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricsz = %d", resp.StatusCode)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return samples
}

func newTestServer(t *testing.T, cfg Config) (*Station, *httptest.Server) {
	t.Helper()
	st := newStation(t, cfg)
	srv := httptest.NewServer(NewAPI(st).Handler())
	t.Cleanup(srv.Close)
	return st, srv
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	resp.Body.Close()
	return resp
}

func TestQuerySyncHTTP(t *testing.T) {
	_, srv := newTestServer(t, testConfig(2, 8))
	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Answer == nil {
		t.Fatalf("sync answer missing: %+v", st)
	}
	if st.Answer.Kind.String() != "sum" || st.Answer.Value <= 0 {
		t.Errorf("bad answer: %+v", st.Answer)
	}
	if !strings.HasPrefix(st.Summary, "sum=") {
		t.Errorf("summary not QueryAnswer.String(): %q", st.Summary)
	}
	if !bytes.Contains(data, []byte(`"kind": "sum"`)) {
		t.Errorf("kind not serialized by name: %s", data)
	}
}

// TestAsyncJobLifecycle covers submit -> poll -> result over the wire.
func TestAsyncJobLifecycle(t *testing.T) {
	_, srv := newTestServer(t, testConfig(2, 8))
	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"average","async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	loc := resp.Header.Get("Location")
	if loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, st.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var polled JobStatus
		if resp := getJSON(t, srv.URL+loc, &polled); resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		if polled.State == "done" {
			if polled.Answer == nil || polled.Answer.Kind.String() != "average" {
				t.Fatalf("done without answer: %+v", polled)
			}
			if polled.Answer.Participation() <= 0 {
				t.Errorf("participation = %v, want > 0", polled.Answer.Participation())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", polled.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueryOutlivesReadTimeout parks epochs well past the server's read
// deadline. ReadTimeout bounds reading the request, not the work behind
// it: a sync query must still be answered with a done job, and a bodyless
// GET must keep its context for as long as it runs.
func TestQueryOutlivesReadTimeout(t *testing.T) {
	const readTimeout = 50 * time.Millisecond
	st := newStation(t, testConfig(1, 4))
	mux := http.NewServeMux()
	mux.Handle("/v1/", NewAPI(st).Handler())
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(4 * readTimeout):
			w.WriteHeader(http.StatusOK)
		case <-r.Context().Done():
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	srv := NewServer(mux)
	srv.ReadTimeout = readTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	base := "http://" + ln.Addr().String()

	st.setRunningHook(func(*Job) { time.Sleep(4 * readTimeout) })
	defer st.setRunningHook(nil)
	resp, data := postJSON(t, base+"/v1/query", `{"kind":"sum"}`)
	var status JobStatus
	if err := json.Unmarshal(data, &status); resp.StatusCode != http.StatusOK || err != nil || status.State != "done" {
		t.Errorf("sync query past the read deadline: %d %s", resp.StatusCode, data)
	}
	get, err := http.Get(base + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Errorf("bodyless GET past the read deadline: %d, want 200", get.StatusCode)
	}
}

// TestSlowBodyClientIsCutOff: a client that sends complete headers
// announcing a 64-byte body and then dribbles the body must be cut off once
// the server's ReadTimeout lapses, no job may be admitted for it, and a
// well-formed query sent meanwhile must still be served.
func TestSlowBodyClientIsCutOff(t *testing.T) {
	const readTimeout = 300 * time.Millisecond
	st := newStation(t, testConfig(1, 4))
	srv := NewServer(NewAPI(st).Handler())
	srv.ReadTimeout = readTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	// The server's read deadline starts when it accepts, which can be
	// before Dial returns: take the clock first.
	start := time.Now()
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "POST /v1/query HTTP/1.1\r\nHost: station\r\n"+
		"Content-Type: application/json\r\nContent-Length: 64\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	// One byte per tenth of the read timeout: the body would take 6.4
	// timeouts to arrive.
	body := fmt.Sprintf("%-64s", `{"kind":"sum"}`)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := 0; i < len(body); i++ {
			select {
			case <-stop:
				return
			case <-time.After(readTimeout / 10):
			}
			if _, err := slow.Write([]byte{body[i]}); err != nil {
				return
			}
		}
	}()

	resp, data := postJSON(t, "http://"+ln.Addr().String()+"/v1/query", `{"kind":"sum"}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("query next to a dribbling client: %d %s", resp.StatusCode, data)
	}

	// The server must hang up (after at most an error response) within the
	// read timeout plus scheduling slack; a reset counts as hanging up.
	const slack = 5 * time.Second
	if err := slow.SetReadDeadline(start.Add(readTimeout + slack)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(slow)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("dribbling connection still open after %v", time.Since(start))
	}
	if strings.HasPrefix(string(got), "HTTP/1.1 2") {
		t.Errorf("dribbled body answered %q", got)
	}
	if waited := time.Since(start); waited < readTimeout {
		t.Errorf("dribbling connection closed after %v, before the %v read timeout", waited, readTimeout)
	}
	if m := scrape(t, st); m.Sum("agg_station_submitted_total", "result", "accepted") != 1 {
		t.Errorf("accepted submissions = %v, want 1 (the well-formed query only)",
			m.Sum("agg_station_submitted_total", "result", "accepted"))
	}
}

func TestQueueFullReturns503WithRetryAfter(t *testing.T) {
	st, srv := newTestServer(t, testConfig(1, 1))
	started, release := blockWorkers(st)

	if resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, data)
	}
	<-started // worker parked; queue empty
	if resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"count","async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", resp.StatusCode, data)
	}
	// Queue (depth 1) now full: the accept loop must shed, not block.
	resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"max","async":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("full-queue status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil || e.RetryAfterMs <= 0 {
		t.Errorf("503 body missing retry_after_ms: %s", data)
	}
	close(release)
	st.setRunningHook(nil)
}

func TestCancelJobOverHTTP(t *testing.T) {
	st, srv := newTestServer(t, testConfig(1, 4))
	started, release := blockWorkers(st)

	if resp, _ := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatal("first submit failed")
	}
	<-started
	_, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum","async":true}`)
	var queued JobStatus
	if err := json.Unmarshal(data, &queued); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if canceled.State != "canceled" {
		t.Errorf("state after DELETE = %q, want canceled", canceled.State)
	}
	close(release)
	st.setRunningHook(nil)
}

func TestQueryValidationHTTP(t *testing.T) {
	_, srv := newTestServer(t, testConfig(1, 4))
	cases := []struct{ body, want string }{
		{`{"kind":"median"}`, "unknown query kind"},
		{`{"kind":"sum","bogus":1}`, "unknown field"},
		{`{"kind":"sum","fanout":true}`, "unknown field"}, // the retired fan-out field
		{`{"kind":"sum"`, "bad request body"},             // truncated JSON
		{`{"kind":"sum","timeout_ms":-5}`, "timeout_ms"},
		{`not json at all`, "bad request body"},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, srv.URL+"/v1/query", tc.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.want) {
			t.Errorf("POST %s -> %d (%s), want 400 naming %q", tc.body, resp.StatusCode, data, tc.want)
		}
	}
	if resp := getJSON(t, srv.URL+"/v1/jobs/job-999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job -> %d, want 404", resp.StatusCode)
	}
}

func TestScheduleLifecycleHTTP(t *testing.T) {
	_, srv := newTestServer(t, testConfig(2, 16))
	resp, data := postJSON(t, srv.URL+"/v1/schedules", `{"kind":"sum","period_ms":5,"jitter":0.2,"keep":8}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create schedule: %d %s", resp.StatusCode, data)
	}
	var sc ScheduleStatus
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatal(err)
	}
	resultsURL := srv.URL + "/v1/schedules/" + sc.ID + "/results"
	if loc := resp.Header.Get("Location"); loc != "/v1/schedules/"+sc.ID+"/results" {
		t.Errorf("Location = %q", loc)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var out scheduleResults
		if resp := getJSON(t, resultsURL, &out); resp.StatusCode != http.StatusOK {
			t.Fatalf("results status = %d", resp.StatusCode)
		}
		if len(out.Results) >= 2 {
			for _, r := range out.Results {
				if r.Answer == nil {
					t.Fatalf("epoch %d errored: %s", r.Epoch, r.Error)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("schedule produced no results")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var list []ScheduleStatus
	getJSON(t, srv.URL+"/v1/schedules", &list)
	if len(list) != 1 || list[0].ID != sc.ID {
		t.Errorf("schedule list = %+v", list)
	}
	if resp := doDelete(t, srv.URL+"/v1/schedules/"+sc.ID); resp.StatusCode != http.StatusNoContent {
		t.Errorf("delete schedule -> %d, want 204", resp.StatusCode)
	}
	if resp := getJSON(t, resultsURL, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("results after delete -> %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/schedules", `{"kind":"sum","period_ms":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("zero period -> %d, want 400", resp.StatusCode)
	}
}

// TestGracefulDrainUnderTraffic is the drain-on-SIGTERM path minus the
// signal: cmd/aggd translates SIGTERM into exactly this Drain call. A
// 2-worker pool with queued traffic must finish every admitted job, then
// refuse new ones with 503 while /healthz flips to draining.
func TestGracefulDrainUnderTraffic(t *testing.T) {
	st, srv := newTestServer(t, testConfig(2, 16))
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		resp, data := postJSON(t, srv.URL+"/v1/query",
			fmt.Sprintf(`{"kind":"sum","seed":%d,"async":true}`, i+1))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
		var js JobStatus
		if err := json.Unmarshal(data, &js); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, js.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := st.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, id := range ids {
		var js JobStatus
		getJSON(t, srv.URL+"/v1/jobs/"+id, &js)
		if js.State != "done" {
			t.Errorf("job %s after drain = %q, want done", id, js.State)
		}
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/query", `{"kind":"sum"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining -> %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining -> %d, want 503", resp.StatusCode)
	}
}

func TestHealthzAndMetricsz(t *testing.T) {
	_, srv := newTestServer(t, testConfig(2, 8))
	var health Health
	if resp := getJSON(t, srv.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if health.Status != "ok" {
		t.Errorf("healthz body = %+v", health)
	}
	if len(health.Shards) != 1 || health.Shards[0].State != "healthy" {
		t.Errorf("healthz shard detail = %+v", health.Shards)
	}
	if resp, data := postJSON(t, srv.URL+"/v1/query", `{"kind":"variance"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, data)
	}
	m := scrapeHTTP(t, srv.URL)
	if m["agg_station_workers"] != 2 || m["agg_station_queue_capacity"] != 8 {
		t.Errorf("metricsz pool shape = %v workers / %v cap", m["agg_station_workers"], m["agg_station_queue_capacity"])
	}
	if jobs(m, "done") != 1 || m.Sum("agg_station_submitted_total", "result", "accepted") != 1 {
		t.Errorf("metricsz counters = %v", m)
	}
	if rounds := m.Sum("agg_station_worker_rounds_total"); rounds != 1 {
		t.Errorf("metricsz worker rounds = %v, want 1", rounds)
	}
}
