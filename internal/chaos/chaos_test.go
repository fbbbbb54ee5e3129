package chaos

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

// clock is a settable fake wall clock for deterministic window tests.
type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *clock                   { return &clock{t: time.Unix(1000, 0)} }
func start(t *testing.T, p Plan) (*Controller, *clock) {
	t.Helper()
	ctl, err := NewController(p)
	if err != nil {
		t.Fatal(err)
	}
	ck := newClock()
	ctl.SetNow(ck.now)
	ctl.Start()
	return ctl, ck
}

func TestPlanValidateRejectsMalformedWindows(t *testing.T) {
	for name, p := range map[string]Plan{
		"unknown kind":    {Faults: []Window{{Kind: "meteor"}}},
		"latency no lat":  {Faults: []Window{{Kind: KindLatency}}},
		"rate over 1":     {Faults: []Window{{Kind: KindErrors, Rate: 1.5}}},
		"negative shard":  {Faults: []Window{{Kind: KindCrash, Shard: -2}}},
		"negative window": {Faults: []Window{{Kind: KindCrash, At: -1}}},
		"kill on latency": {Faults: []Window{{Kind: KindLatency, Latency: 1, Kill: true}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p.Faults[0])
		}
	}
	good := CrashOnePlan(1, 0, time.Second)
	if err := good.Validate(); err != nil {
		t.Errorf("canonical plan rejected: %v", err)
	}
}

func TestDurationJSONBothForms(t *testing.T) {
	var w Window
	if err := json.Unmarshal([]byte(`{"kind":"latency","latency":"250ms","at":1000000}`), &w); err != nil {
		t.Fatal(err)
	}
	if time.Duration(w.Latency) != 250*time.Millisecond || time.Duration(w.At) != time.Millisecond {
		t.Fatalf("parsed window: latency=%v at=%v", time.Duration(w.Latency), time.Duration(w.At))
	}
	out, err := json.Marshal(Duration(3 * time.Second))
	if err != nil || string(out) != `"3s"` {
		t.Fatalf("marshal = %s, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`{"latency":"much"}`), &w); err == nil {
		t.Error("garbage duration accepted")
	}
}

func TestParsePlanValidates(t *testing.T) {
	if _, err := ParsePlan([]byte(`{"seed":1,"faults":[{"kind":"crash","shard":0,"at":"1s","dwell":"1s","kill":true}]}`)); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	if _, err := ParsePlan([]byte(`{"faults":[{"kind":"meteor"}]}`)); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := ParsePlan([]byte(`{`)); err == nil {
		t.Error("truncated JSON accepted")
	}
}

// FuzzParsePlan: a plan ParsePlan accepts passes Validate, and marshals
// and parses back to an equal plan — so a plan written out by any tool
// that round-trips it stays the plan that was checked.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{"seed":7,"faults":[{"shard":2,"kind":"crash","at":"2.5s","dwell":"2.5s","kill":true}]}`))
	f.Add([]byte(`{"seed":-1,"faults":[{"shard":-1,"kind":"latency","at":0,"latency":"40ms"}]}`))
	f.Add([]byte(`{"faults":[{"shard":0,"kind":"errors","at":"1ms","rate":0.5},{"shard":1,"kind":"queue-full","at":1000}]}`))
	f.Add([]byte(`{"faults":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan accepted a plan Validate rejects: %v", err)
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal %+v: %v", p, err)
		}
		back, err := ParsePlan(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v\nvia %s", back, p, out)
		}
	})
}

func TestWindowsGateOnTimeAndShard(t *testing.T) {
	ctl, ck := start(t, Plan{Faults: []Window{
		{Shard: 1, Kind: KindCrash, At: Duration(100 * time.Millisecond), Dwell: Duration(200 * time.Millisecond), Kill: true},
		{Shard: AllShards, Kind: KindLatency, At: Duration(400 * time.Millisecond), Dwell: Duration(100 * time.Millisecond), Latency: Duration(5 * time.Millisecond)},
	}})
	if d := ctl.Decide(1); d.Crash {
		t.Fatal("crash active before its window")
	}
	ck.advance(150 * time.Millisecond)
	if d := ctl.Decide(1); !d.Crash {
		t.Fatal("crash inactive inside its window")
	}
	if d := ctl.Decide(0); d.Crash {
		t.Fatal("crash leaked onto an untargeted shard")
	}
	if active, kill := ctl.CrashActive(1); !active || !kill {
		t.Fatalf("CrashActive(1) = %v, %v; want true, true", active, kill)
	}
	ck.advance(200 * time.Millisecond) // t=350ms: crash lifted
	if d := ctl.Decide(1); d.Crash {
		t.Fatal("crash survived past its dwell")
	}
	ck.advance(100 * time.Millisecond) // t=450ms: all-shards latency
	for shard := 0; shard < 3; shard++ {
		if d := ctl.Decide(shard); d.Latency != 5*time.Millisecond {
			t.Fatalf("shard %d latency = %v inside an all-shards window", shard, d.Latency)
		}
	}
}

func TestZeroDwellNeverLifts(t *testing.T) {
	ctl, ck := start(t, Plan{Faults: []Window{{Shard: 0, Kind: KindQueueFull}}})
	ck.advance(time.Hour)
	if d := ctl.Decide(0); !d.QueueFull {
		t.Fatal("zero-dwell window lifted")
	}
}

// TestErrorDrawsDeterministic: two controllers with the same seed make the
// same error-burst decision sequence — the determinism contract.
func TestErrorDrawsDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Faults: []Window{{Shard: 0, Kind: KindErrors, Rate: 0.5}}}
	run := func() []bool {
		ctl, ck := start(t, plan)
		ck.advance(time.Millisecond)
		out := make([]bool, 64)
		for i := range out {
			out[i] = ctl.Decide(0).Err
		}
		return out
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged across identical controllers", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("rate-0.5 burst failed %d/%d requests; draws look degenerate", fails, len(a))
	}
}

func TestNilControllerIsDisabled(t *testing.T) {
	var ctl *Controller
	ctl.Start()
	if ctl.Started() || ctl.Elapsed() != 0 {
		t.Fatal("nil controller claims to be running")
	}
	if d := ctl.Decide(0); d.Crash || d.Err || d.QueueFull || d.Latency != 0 {
		t.Fatalf("nil controller decided %+v", d)
	}
	if active, _ := ctl.CrashActive(0); active {
		t.Fatal("nil controller reports an active crash")
	}
}

func TestDisabledDecideAllocatesNothing(t *testing.T) {
	var nilCtl *Controller
	if n := testing.AllocsPerRun(200, func() { nilCtl.Decide(0) }); n != 0 {
		t.Errorf("nil Decide allocates %.1f/op on the serve hot path", n)
	}
	ctl, ck := start(t, CrashOnePlan(1, 0, time.Second))
	ck.advance(500 * time.Millisecond)
	if n := testing.AllocsPerRun(200, func() { ctl.Decide(0) }); n != 0 {
		t.Errorf("armed Decide allocates %.1f/op", n)
	}
}

// TestEdgeEventsOncePerWindow: a window's on and off transitions each emit
// exactly one fault event, tagged so forensics can tell them apart.
func TestEdgeEventsOncePerWindow(t *testing.T) {
	col := &trace.Collector{}
	ctl, ck := start(t, Plan{Faults: []Window{{
		Shard: 1, Kind: KindCrash,
		At: Duration(10 * time.Millisecond), Dwell: Duration(10 * time.Millisecond), Kill: true,
	}}})
	ctl.Trace(col)
	ck.advance(15 * time.Millisecond)
	ctl.Decide(1)
	ctl.Decide(1) // second look: no duplicate edge
	ck.advance(10 * time.Millisecond)
	ctl.Decide(1)
	ctl.Decide(1)
	evs := col.Events()
	if len(evs) != 2 {
		t.Fatalf("edge events = %d, want on + off", len(evs))
	}
	if evs[0].Cause != KindCrash || evs[1].Cause != KindCrash+"-lifted" {
		t.Fatalf("edge causes = %q, %q", evs[0].Cause, evs[1].Cause)
	}
	for _, ev := range evs {
		if ev.Phase != trace.PhaseFleet || ev.Type != trace.TypeFault || int(ev.Node) != 1 {
			t.Errorf("edge event misfiled: %+v", ev)
		}
	}
}

// TestTransportVerdicts drives the proxy seam: crashes and error bursts
// must surface as transport errors (breaker food), queue-full storms as
// synthesized 503s with a retry hint (backpressure), and unknown hosts
// must pass through untouched.
func TestTransportVerdicts(t *testing.T) {
	inner := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: http.StatusTeapot, Body: http.NoBody}, nil
	})
	ctl, ck := start(t, Plan{Faults: []Window{
		{Shard: 0, Kind: KindCrash, Dwell: Duration(time.Hour)},
		{Shard: 1, Kind: KindQueueFull, Dwell: Duration(time.Hour)},
	}})
	ck.advance(time.Millisecond)
	rt := NewTransport(inner, ctl, map[string]int{"s0:1": 0, "s1:1": 1})

	req := func(host string) *http.Request {
		r, err := http.NewRequest(http.MethodGet, "http://"+host+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if _, err := rt.RoundTrip(req("s0:1")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashed shard round trip = %v, want ErrCrashed", err)
	}
	resp, err := rt.RoundTrip(req("s1:1"))
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full storm = %v, %v; want a synthesized 503", resp, err)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("synthesized 503 lacks Retry-After")
	}
	resp.Body.Close()
	resp, err = rt.RoundTrip(req("elsewhere:9"))
	if err != nil || resp.StatusCode != http.StatusTeapot {
		t.Fatalf("unknown host = %v, %v; want passthrough to inner", resp, err)
	}

	if NewTransport(inner, nil, nil) == nil {
		t.Fatal("nil-controller transport must be the inner transport")
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
