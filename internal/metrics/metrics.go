// Package metrics collects the quantities the evaluation reports: bytes and
// messages on the air (per node and total), collision losses, aggregation
// accuracy, coverage/participation, privacy disclosure and integrity
// detection statistics.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/message"
	"repro/internal/topo"
)

// Recorder accumulates radio-level traffic counters for one simulation run.
// It is not safe for concurrent use; one trial owns one Recorder.
//
// Per-node counters are dense slices indexed by NodeID, not maps: every
// reception on the simulated air touches them, and at 100k nodes the map
// hashing was the single hottest line of a round. Slices grow on demand so
// the zero-configuration constructor keeps working.
type Recorder struct {
	txBytes    []int
	rxBytes    []int
	txMsgs     []int
	rxMsgs     []int
	collisions int
	dropped    int // frames lost to collisions (receiver-side)
	// Per-kind totals, indexed by the Kind byte itself: counting a frame is
	// two array adds, and the string labels are only built when read.
	kindBytes [256]int
	kindMsgs  [256]int
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset clears every counter, returning the Recorder to its just-built
// state. It keeps the allocated slices so a reused deployment does not
// churn the heap between trials.
func (r *Recorder) Reset() {
	clear(r.txBytes)
	clear(r.rxBytes)
	clear(r.txMsgs)
	clear(r.rxMsgs)
	r.collisions = 0
	r.dropped = 0
	clear(r.kindBytes[:])
	clear(r.kindMsgs[:])
}

// ensure grows the per-node counters to cover id.
func (r *Recorder) ensure(id topo.NodeID) {
	if int(id) < len(r.txBytes) {
		return
	}
	n := int(id) + 1
	r.txBytes = append(r.txBytes, make([]int, n-len(r.txBytes))...)
	r.rxBytes = append(r.rxBytes, make([]int, n-len(r.rxBytes))...)
	r.txMsgs = append(r.txMsgs, make([]int, n-len(r.txMsgs))...)
	r.rxMsgs = append(r.rxMsgs, make([]int, n-len(r.rxMsgs))...)
}

// OnTransmit records a frame leaving node from.
func (r *Recorder) OnTransmit(from topo.NodeID, kind message.Kind, bytes int) {
	r.ensure(from)
	r.txBytes[from] += bytes
	r.txMsgs[from]++
	r.kindBytes[kind] += bytes
	r.kindMsgs[kind]++
}

// OnReceive records a successfully delivered frame at node to.
func (r *Recorder) OnReceive(to topo.NodeID, bytes int) {
	r.ensure(to)
	r.rxBytes[to] += bytes
	r.rxMsgs[to]++
}

// OnCollision records a collision event (one per corrupted reception).
func (r *Recorder) OnCollision() { r.collisions++ }

// OnDrop records a frame lost at a receiver.
func (r *Recorder) OnDrop() { r.dropped++ }

// TotalTxBytes returns the total bytes put on the air.
func (r *Recorder) TotalTxBytes() int {
	total := 0
	for _, b := range r.txBytes {
		total += b
	}
	return total
}

// TotalTxMessages returns the total frames transmitted.
func (r *Recorder) TotalTxMessages() int {
	total := 0
	for _, m := range r.txMsgs {
		total += m
	}
	return total
}

// TotalRxBytes returns the total bytes successfully delivered.
func (r *Recorder) TotalRxBytes() int {
	total := 0
	for _, b := range r.rxBytes {
		total += b
	}
	return total
}

// TotalRxMessages returns the total frames delivered.
func (r *Recorder) TotalRxMessages() int {
	total := 0
	for _, m := range r.rxMsgs {
		total += m
	}
	return total
}

// NodeTxBytes returns bytes transmitted by one node.
func (r *Recorder) NodeTxBytes(id topo.NodeID) int { return nodeCount(r.txBytes, id) }

// NodeRxBytes returns bytes successfully received by one node.
func (r *Recorder) NodeRxBytes(id topo.NodeID) int { return nodeCount(r.rxBytes, id) }

// NodeTxMessages returns frames transmitted by one node.
func (r *Recorder) NodeTxMessages(id topo.NodeID) int { return nodeCount(r.txMsgs, id) }

// NodeRxMessages returns frames successfully received by one node.
func (r *Recorder) NodeRxMessages(id topo.NodeID) int { return nodeCount(r.rxMsgs, id) }

// nodeCount reads a per-node counter; nodes never heard from count zero.
func nodeCount(s []int, id topo.NodeID) int {
	if int(id) >= len(s) {
		return 0
	}
	return s[id]
}

// Collisions returns the number of collision events observed.
func (r *Recorder) Collisions() int { return r.collisions }

// Dropped returns the number of receptions lost to collisions.
func (r *Recorder) Dropped() int { return r.dropped }

// TxMessagesOfKind returns how many frames of one kind, named by its
// Kind.String() label, went on the air.
func (r *Recorder) TxMessagesOfKind(kind string) int {
	for k, n := range r.kindMsgs {
		if n > 0 && message.Kind(k).String() == kind {
			return n
		}
	}
	return 0
}

// AppMessages returns transmitted frames excluding MAC-level ACKs — the
// quantity the lineage papers count as "messages per node".
func (r *Recorder) AppMessages() int {
	return r.TotalTxMessages() - r.kindMsgs[message.KindAck]
}

// Mark is a traffic checkpoint: the transmit totals at one instant, from
// which a round's own traffic is measured.
type Mark struct{ txBytes, txMsgs, appMsgs int }

// Mark records the current transmit totals.
func (r *Recorder) Mark() Mark {
	msgs := r.TotalTxMessages()
	return Mark{txBytes: r.TotalTxBytes(), txMsgs: msgs, appMsgs: msgs - r.kindMsgs[message.KindAck]}
}

// FillSince sets res's TxBytes, TxMessages and AppMessages to the traffic
// transmitted since m.
func (r *Recorder) FillSince(m Mark, res *RoundResult) {
	now := r.Mark()
	res.TxBytes = now.txBytes - m.txBytes
	res.TxMessages = now.txMsgs - m.txMsgs
	res.AppMessages = now.appMsgs - m.appMsgs
}

// Traffic is a point-in-time value copy of a Recorder's totals, safe to
// hand across goroutine boundaries (the Recorder itself is single-owner).
type Traffic struct {
	TxBytes     int `json:"tx_bytes"`
	RxBytes     int `json:"rx_bytes"`
	TxMessages  int `json:"tx_messages"`
	RxMessages  int `json:"rx_messages"`
	AppMessages int `json:"app_messages"`
	Collisions  int `json:"collisions"`
	Dropped     int `json:"dropped"`
}

// Traffic snapshots the Recorder's aggregate counters.
func (r *Recorder) Traffic() Traffic {
	return Traffic{
		TxBytes:     r.TotalTxBytes(),
		RxBytes:     r.TotalRxBytes(),
		TxMessages:  r.TotalTxMessages(),
		RxMessages:  r.TotalRxMessages(),
		AppMessages: r.AppMessages(),
		Collisions:  r.collisions,
		Dropped:     r.dropped,
	}
}

// Add accumulates another snapshot into t (per-worker totals in a pool).
func (t *Traffic) Add(o Traffic) {
	t.TxBytes += o.TxBytes
	t.RxBytes += o.RxBytes
	t.TxMessages += o.TxMessages
	t.RxMessages += o.RxMessages
	t.AppMessages += o.AppMessages
	t.Collisions += o.Collisions
	t.Dropped += o.Dropped
}

// BytesByKind returns the per-message-kind byte totals, keyed by
// Kind.String() label, for every kind that went on the air.
func (r *Recorder) BytesByKind() map[string]int {
	out := make(map[string]int)
	for k, n := range r.kindMsgs {
		if n > 0 {
			out[message.Kind(k).String()] = r.kindBytes[k]
		}
	}
	return out
}

// KindsSorted returns the labels of the kinds that went on the air, in
// deterministic order.
func (r *Recorder) KindsSorted() []string {
	var keys []string
	for k, n := range r.kindMsgs {
		if n > 0 {
			keys = append(keys, message.Kind(k).String())
		}
	}
	sort.Strings(keys)
	return keys
}

// Protocol is one aggregation protocol bound to a deployment: every Run
// executes one round and returns the base station's view of it. The
// cluster protocol, TAG (with or without sampled attestation) and iPDA all
// satisfy it, which is what lets drivers and harnesses treat them alike.
type Protocol interface {
	Run(round uint16) (RoundResult, error)
}

// RoundResult captures the outcome of one aggregation round as seen at the
// base station, compared against ground truth.
type RoundResult struct {
	Protocol     string
	TrueSum      int64 // ground-truth sum over ALL deployed sensor nodes
	TrueCount    int64 // ground-truth count of all deployed sensor nodes
	ReportedSum  int64 // what the base station accepted
	ReportedCnt  int64
	Participants int  // nodes whose reading entered the aggregate
	Covered      int  // nodes structurally able to participate
	Accepted     bool // base-station integrity verdict
	Alarms       int  // witness alarms received

	// Resilience accounting (degraded subset recovery).
	DegradedClusters int // clusters recovered over a strict participant subset
	FailedClusters   int // viable clusters that contributed nothing

	// Head-failover accounting.
	Takeovers       int // deputy stand-in announces after in-round head silence
	Promotions      int // deputies promoted to permanent head at round start
	OrphansRejoined int // members of dead clusters re-adopted elsewhere

	TxBytes     int
	TxMessages  int // all frames including MAC ACKs
	AppMessages int // frames excluding MAC ACKs
}

// Accuracy is reported-sum / true-sum, the paper's accuracy metric
// (1.0 = no data loss). A zero true sum reported exactly is perfect
// accuracy, not zero; only a non-zero report against a zero truth is wrong.
func (r RoundResult) Accuracy() float64 {
	if r.TrueSum == 0 {
		if r.ReportedSum == 0 {
			return 1
		}
		return 0
	}
	return float64(r.ReportedSum) / float64(r.TrueSum)
}

// CountAccuracy is the COUNT-aggregation analogue.
func (r RoundResult) CountAccuracy() float64 {
	if r.TrueCount == 0 {
		if r.ReportedCnt == 0 {
			return 1
		}
		return 0
	}
	return float64(r.ReportedCnt) / float64(r.TrueCount)
}

// ParticipationRate is the fraction of deployed nodes that contributed.
func (r RoundResult) ParticipationRate() float64 {
	if r.TrueCount == 0 {
		return 0
	}
	return float64(r.Participants) / float64(r.TrueCount)
}

// CoverageRate is the fraction of nodes structurally covered by the
// protocol (reachable by the required trees / in a viable cluster).
func (r RoundResult) CoverageRate() float64 {
	if r.TrueCount == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.TrueCount)
}

// String renders a one-line summary. Resilience and failover counters
// appear only when non-zero, so the healthy-round line stays short.
func (r RoundResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: sum=%d/%d count=%d/%d accepted=%v alarms=%d",
		r.Protocol, r.ReportedSum, r.TrueSum, r.ReportedCnt, r.TrueCount,
		r.Accepted, r.Alarms)
	if r.DegradedClusters > 0 || r.FailedClusters > 0 {
		fmt.Fprintf(&b, " degraded=%d failed=%d", r.DegradedClusters, r.FailedClusters)
	}
	if r.Takeovers > 0 || r.Promotions > 0 || r.OrphansRejoined > 0 {
		fmt.Fprintf(&b, " takeovers=%d promotions=%d rejoined=%d",
			r.Takeovers, r.Promotions, r.OrphansRejoined)
	}
	fmt.Fprintf(&b, " tx=%dB", r.TxBytes)
	return b.String()
}
