package repro

import (
	"math"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func TestNewDeploymentDefaults(t *testing.T) {
	dep, err := NewDeployment(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Size() != 400 {
		t.Errorf("default size = %d", dep.Size())
	}
	if dep.AverageDegree() < 10 {
		t.Errorf("degree = %g suspiciously low", dep.AverageDegree())
	}
	if dep.TrueSum() <= 0 {
		t.Error("true sum should be positive")
	}
}

func TestNewDeploymentInvalid(t *testing.T) {
	if _, err := NewDeployment(Options{Nodes: 1}); err == nil {
		t.Error("single node should fail")
	}
}

func TestRunAllProtocols(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 300, Seed: 2, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := dep.RunCluster(ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Protocol != "icpda" || !rc.Accepted {
		t.Errorf("cluster result = %+v", rc)
	}
	rt, err := dep.RunTAG()
	if err != nil {
		t.Fatal(err)
	}
	if rt.Protocol != "tag" {
		t.Errorf("tag result = %+v", rt)
	}
	ri, err := dep.RunIPDA(IPDAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ri.Protocol != "ipda" {
		t.Errorf("ipda result = %+v", ri)
	}
	// All three protocols should report sane accuracies on the same
	// (connected or not) deployment.
	for _, r := range []Result{rc, rt, ri} {
		if acc := r.Accuracy(); acc < 0 || acc > 1.05 {
			t.Errorf("%s accuracy = %g", r.Protocol, acc)
		}
	}
}

func TestCountQuery(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 250, Seed: 3, Ideal: true, CountQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	if dep.TrueSum() != 249 {
		t.Errorf("count-query true sum = %d", dep.TrueSum())
	}
}

func TestPollutionEndToEnd(t *testing.T) {
	o := Options{Nodes: 400, Seed: 4, Ideal: true}
	polluter, err := PickPolluter(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if polluter <= 0 {
		t.Skip("no suitable polluter in this topology")
	}
	dep, err := NewDeployment(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.RunCluster(ClusterOptions{Polluter: polluter, PollutionDelta: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Error("pollution undetected through the public API")
	}
	// Localization through the public API.
	dep2, err := NewDeployment(o)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := dep2.LocalizePolluter(ClusterOptions{Polluter: polluter, PollutionDelta: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if loc.Suspect != polluter {
		t.Errorf("localized %d, want %d", loc.Suspect, polluter)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	r := Result{TrueSum: 100, ReportedSum: 90, TrueCount: 10, Participants: 9}
	if r.Accuracy() != 0.9 {
		t.Errorf("accuracy = %g", r.Accuracy())
	}
	if r.ParticipationRate() != 0.9 {
		t.Errorf("participation = %g", r.ParticipationRate())
	}
	// An exactly-reported zero truth is perfect accuracy, not a division by
	// zero and not the 0.0 the naive guard used to return.
	var zero Result
	if zero.Accuracy() != 1 || zero.ParticipationRate() != 0 {
		t.Errorf("zero result: accuracy = %g, participation = %g",
			zero.Accuracy(), zero.ParticipationRate())
	}
	zero.ReportedSum = 5
	if zero.Accuracy() != 0 {
		t.Error("non-zero report against zero truth is maximally wrong")
	}
}

func TestExperimentAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 11 {
		t.Fatalf("experiments = %v", ids)
	}
	out, err := RunExperiment("T1-density", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "avg_degree") {
		t.Errorf("experiment output = %q", out)
	}
	if _, err := RunExperiment("bogus", true, 1); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestGridDeployment(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 100, Seed: 5, Grid: true, FieldSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Connected() {
		t.Error("dense grid should be connected")
	}
}

func TestRunClusterRoundsSoak(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 300, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 8
	results, err := dep.RunClusterRounds(rounds, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != rounds {
		t.Fatalf("got %d results", len(results))
	}
	sums := map[int64]bool{}
	for i, r := range results {
		if !r.Accepted {
			t.Errorf("round %d rejected with %d alarms", i+1, r.Alarms)
		}
		if r.ParticipationRate() < 0.5 {
			t.Errorf("round %d participation %.3f", i+1, r.ParticipationRate())
		}
		sums[r.TrueSum] = true
	}
	if len(sums) < 2 {
		t.Error("readings were not re-sampled across rounds")
	}
	// Retained formation keeps participation stable across rounds.
	first, last := results[0].ParticipationRate(), results[rounds-1].ParticipationRate()
	if diff := first - last; diff > 0.25 || diff < -0.25 {
		t.Errorf("participation drifted: %.3f -> %.3f", first, last)
	}
}

func TestRunClusterRoundsValidation(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.RunClusterRounds(0, ClusterOptions{}); err == nil {
		t.Error("zero rounds accepted")
	}
	// The wire round counter is 16-bit; a larger request must be rejected up
	// front instead of silently truncating round numbers.
	if _, err := dep.RunClusterRounds(math.MaxUint16+1, ClusterOptions{}); err == nil {
		t.Error("rounds beyond the 16-bit wire counter accepted")
	}
	if _, err := dep.RunCluster(ClusterOptions{HeadCrashRate: 1.5}); err == nil {
		t.Error("head crash rate out of range accepted")
	}
}

// TestHeadCrashFailoverRounds drives the public multi-round API through the
// head-failover path: crashed heads are covered in-round by deputies and
// repaired across rounds, with no integrity alarms, and participation
// dominates the failover-off ablation.
func TestHeadCrashFailoverRounds(t *testing.T) {
	const rounds = 3
	runIt := func(nofail bool) []Result {
		dep, err := NewDeployment(Options{Nodes: 300, Seed: 8, Ideal: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := dep.RunClusterRounds(rounds, ClusterOptions{
			HeadCrashRate: 0.15,
			CrashRecover:  true,
			NoFailover:    nofail,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := runIt(false), runIt(true)
	failoverEvents := 0
	for i, r := range on {
		if !r.Accepted || r.Alarms != 0 {
			t.Errorf("failover round %d: accepted=%v alarms=%d", i+1, r.Accepted, r.Alarms)
		}
		failoverEvents += r.Takeovers + r.Promotions + r.OrphansRejoined
	}
	if failoverEvents == 0 {
		t.Error("15% head crashes over 3 rounds exercised no failover machinery")
	}
	if on[rounds-1].Participants <= off[rounds-1].Participants {
		t.Errorf("final round: failover participation %d should beat %d without",
			on[rounds-1].Participants, off[rounds-1].Participants)
	}
}

func TestEnableTraceCapturesEvents(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 150, Seed: 10, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	dump := dep.EnableTrace(500)
	if _, err := dep.RunCluster(ClusterOptions{}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"election", "announce"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q category", want)
		}
	}
}

func TestTraceSinksCompose(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 150, Seed: 10, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	// All three attachments observe the same event stream.
	dump := dep.EnableTrace(500)
	var jsonl strings.Builder
	closeTrace := dep.TraceTo(&jsonl)
	reg := telemetry.NewRegistry()
	dep.TraceCounts(reg)
	if _, err := dep.RunCluster(ClusterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := closeTrace(); err != nil {
		t.Fatal(err)
	}
	var ring strings.Builder
	if err := dump(&ring); err != nil {
		t.Fatal(err)
	}
	if ring.Len() == 0 {
		t.Error("ring sink saw nothing")
	}
	if !strings.Contains(jsonl.String(), `"type":"lifecycle"`) {
		t.Error("JSONL sink missing lifecycle events")
	}
	var exp strings.Builder
	if err := reg.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	counts, err := telemetry.ParseText(strings.NewReader(exp.String()))
	if err != nil {
		t.Fatal(err)
	}
	if counts.Sum("agg_trace_events_total") == 0 || counts.Sum("agg_trace_events_total", "type", "lifecycle") == 0 {
		t.Errorf("counting sink series: %v", counts)
	}
}

func TestPrivacyClosedForms(t *testing.T) {
	if got := DisclosureClosedForm(0.5, 3); got != 0.0625 {
		t.Errorf("cluster closed form = %g", got)
	}
	if got := IPDADisclosureClosedForm(0, 2, 3); got != 0 {
		t.Errorf("ipda closed form at 0 = %g", got)
	}
	if IPDADisclosureClosedForm(0.2, 2, 3) <= DisclosureClosedForm(0.2, 3) {
		t.Error("cluster scheme should disclose less than iPDA at equal px")
	}
}

func TestAllQueryKindsThroughFacade(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 200, Seed: 11, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []QueryKind{QuerySum, QueryCount, QueryAverage, QueryVariance, QueryStdDev, QueryMin, QueryMax} {
		ans, err := dep.RunQuery(k, ClusterOptions{})
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		if !ans.Accepted {
			t.Errorf("kind %d rejected", k)
		}
	}
	if _, err := dep.RunQuery(QueryKind(99), ClusterOptions{}); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestIPDAPollutionThroughFacade(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 400, Seed: 12, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	// Any aggregator works for iPDA's own-tree pollution; probe one round
	// first to find a node that participated.
	if _, err := dep.RunIPDA(IPDAOptions{}); err != nil {
		t.Fatal(err)
	}
	dep2, err := NewDeployment(Options{Nodes: 400, Seed: 12, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep2.RunIPDA(IPDAOptions{Slices: 2, Th: 5, Polluter: 10, PollutionDelta: 9999})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // whether node 10 aggregated is topology luck; the API path is what's covered
}

func TestClusterOptionsFullConfig(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 200, Seed: 13, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.RunCluster(ClusterOptions{
		Pc:             0.3,
		PlainFallback:  true,
		NoMerge:        true,
		Polluter:       5,
		PollutionDelta: 100,
		PolluteChild:   true,
		PolluteFrom:    2, // attack starts after round 1: round stays clean
		Colluders:      []int{6, 7},
		CrashRate:      0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Error("round 1 should be clean (attack starts at round 2)")
	}
}

func TestRunSDAPThroughFacade(t *testing.T) {
	dep, err := NewDeployment(Options{Nodes: 300, Seed: 14, Ideal: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.RunSDAP(SDAPOptions{SampleFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != "sdap" || !res.Accepted {
		t.Errorf("sdap result = %+v", res)
	}
	if res.ReportedSum != res.TrueSum {
		t.Errorf("ideal sdap sum = %d, want %d", res.ReportedSum, res.TrueSum)
	}
}
