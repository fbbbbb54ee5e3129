// Package wsn assembles the full simulation substrate — topology, event
// engine, radio, MAC, key scheme, sensor readings — into one Env that the
// protocol implementations (tag, ipda, core) run on. One Env is one
// deployment; protocols may run multiple rounds on it.
package wsn

import (
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wsncrypto"
)

// KeySchemeKind selects the key-management substitution.
type KeySchemeKind int

// Key scheme choices.
const (
	KeyPairwise KeySchemeKind = iota + 1
	KeyEG
)

// Config describes a deployment plus substrate parameters. Zero values get
// the lineage papers' defaults from DefaultConfig.
type Config struct {
	Nodes        int     // total nodes including the base station
	FieldSize    float64 // square side, meters
	Range        float64 // radio range, meters
	Seed         int64
	Grid         bool // jittered-grid deployment (smart metering)
	BaseAtCenter bool

	Radio radio.Config
	MAC   mac.Config

	KeyScheme  KeySchemeKind
	EGPoolSize int // pool size for KeyEG
	EGRingSize int // ring size for KeyEG

	// Readings are drawn uniformly in [ReadingMin, ReadingMax]. Set both
	// to 1 for COUNT queries.
	ReadingMin int64
	ReadingMax int64

	// EventLimit is the runaway-schedule safety valve.
	EventLimit uint64
}

// DefaultConfig returns the papers' standard setup: 400 m × 400 m field,
// 50 m range, 1 Mbps, base station at the center, pairwise keys, readings
// in [10, 100].
func DefaultConfig(nodes int, seed int64) Config {
	return Config{
		Nodes:        nodes,
		FieldSize:    400,
		Range:        50,
		Seed:         seed,
		BaseAtCenter: true,
		Radio:        radio.DefaultConfig(),
		MAC:          mac.DefaultConfig(),
		KeyScheme:    KeyPairwise,
		ReadingMin:   10,
		ReadingMax:   100,
		EventLimit:   50_000_000,
	}
}

// Env is one fully wired deployment.
type Env struct {
	Cfg      Config
	Eng      *sim.Engine
	Net      *topo.Network
	Rec      *metrics.Recorder
	Medium   *radio.Medium
	MAC      *mac.Layer
	Rng      *rand.Rand
	Keys     wsncrypto.KeyScheme
	Readings []int64 // per node; index 0 (base station) is always 0

	// Sink, when non-nil, receives every flight-recorder event from the
	// whole stack (see internal/trace). Install it with SetSink so the
	// engine, radio, and MAC share it.
	Sink trace.Sink

	// links holds the sealing state of every link keyed since the last
	// Reset, one slot per unordered pair, in chunks of linkChunk slots;
	// nlinks counts the slots in use and linkIdx maps the sorted pair to
	// its slot number. Each slot holds its link's key schedule by value,
	// so keying a link allocates nothing once the slab has grown, and
	// growing it adds a chunk without moving the slots already keyed.
	// Reset rewinds nlinks and clears the map, so later rounds reuse both.
	links   []*[linkChunk]wsncrypto.Link
	nlinks  int32
	linkIdx map[[2]topo.NodeID]int32
}

// linkChunk is the number of link slots the slab grows by (~60 KB).
const linkChunk = 128

// SetSink installs the flight-recorder sink across every layer of the
// deployment — engine run lifecycle, radio drop causes, MAC failure paths,
// and the protocol events emitted through Emit/Tracef. Nil disables all of
// them.
func (e *Env) SetSink(s trace.Sink) {
	e.Sink = s
	e.Eng.SetSink(s)
	e.Medium.SetSink(s)
	e.MAC.SetSink(s)
}

// Emit records one typed protocol event, stamping the current virtual
// time. Callers must nil-check e.Sink first when building the event is
// itself costly; Emit only guards the send.
func (e *Env) Emit(ev trace.Event) {
	if e.Sink == nil {
		return
	}
	ev.At = e.Eng.Now()
	e.Sink.Emit(ev)
}

// Tracef records a free-form protocol event at the current virtual time:
// the category becomes the event type, the formatted text its detail. Safe
// to call with tracing disabled; the formatting runs behind the nil check.
func (e *Env) Tracef(node topo.NodeID, category, format string, args ...any) {
	if e.Sink == nil {
		return
	}
	e.Sink.Emit(trace.Event{At: e.Eng.Now(), Node: node, Cluster: trace.NoCluster,
		Type: category, Detail: fmt.Sprintf(format, args...)})
}

// NewEnv builds the substrate.
func NewEnv(cfg Config) (*Env, error) {
	if cfg.FieldSize <= 0 || cfg.Range <= 0 {
		return nil, fmt.Errorf("wsn: field %g / range %g must be positive", cfg.FieldSize, cfg.Range)
	}
	if cfg.ReadingMin > cfg.ReadingMax {
		return nil, fmt.Errorf("wsn: reading range [%d, %d] inverted", cfg.ReadingMin, cfg.ReadingMax)
	}
	net, err := topo.NewNetwork(topo.Config{
		Field:        geom.Field{Width: cfg.FieldSize, Height: cfg.FieldSize},
		Range:        cfg.Range,
		Nodes:        cfg.Nodes,
		Seed:         cfg.Seed,
		BaseAtCenter: cfg.BaseAtCenter,
		Grid:         cfg.Grid,
		GridJitter:   cfg.Range / 10,
	})
	if err != nil {
		return nil, fmt.Errorf("wsn: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	eng := sim.NewEngine()
	if cfg.EventLimit > 0 {
		eng.SetEventLimit(cfg.EventLimit)
	}
	rec := metrics.NewRecorder()
	medium, err := radio.NewMedium(eng, net, rec, cfg.Radio)
	if err != nil {
		return nil, fmt.Errorf("wsn: %w", err)
	}
	if cfg.Radio.Fading || cfg.Radio.LossRate > 0 || len(cfg.Radio.LossByKind) > 0 {
		medium.SetFadingSource(rng)
	}
	layer, err := mac.NewLayer(eng, medium, cfg.Nodes, rng, cfg.MAC)
	if err != nil {
		return nil, fmt.Errorf("wsn: %w", err)
	}
	var keys wsncrypto.KeyScheme
	switch cfg.KeyScheme {
	case KeyPairwise:
		keys = wsncrypto.NewPairwiseScheme([]byte(fmt.Sprintf("master-%d", cfg.Seed)))
	case KeyEG:
		keys, err = wsncrypto.NewEGScheme(rng, cfg.Nodes, cfg.EGPoolSize, cfg.EGRingSize)
		if err != nil {
			return nil, fmt.Errorf("wsn: %w", err)
		}
	default:
		return nil, fmt.Errorf("wsn: unknown key scheme %d", cfg.KeyScheme)
	}
	readings := make([]int64, cfg.Nodes)
	span := cfg.ReadingMax - cfg.ReadingMin
	for i := 1; i < cfg.Nodes; i++ {
		readings[i] = cfg.ReadingMin
		if span > 0 {
			readings[i] += rng.Int63n(span + 1)
		}
	}
	return &Env{
		Cfg:      cfg,
		Eng:      eng,
		Net:      net,
		Rec:      rec,
		Medium:   medium,
		MAC:      layer,
		Rng:      rng,
		Keys:     keys,
		Readings: readings,
		linkIdx:  make(map[[2]topo.NodeID]int32),
	}, nil
}

// Reset rewinds the environment to a freshly-built state under the given
// seed without re-deploying the topology: the event engine, radio medium,
// MAC, traffic counters, key material, link states, RNG, and readings all
// return to exactly the state NewEnv would have produced for this topology
// and seed. Resetting to the original Cfg.Seed therefore replays a run
// bit-for-bit; a different seed keeps the deployment but re-draws every
// other source of randomness — the fixed-topology trial mode used by the
// round benchmarks and the experiment harness.
//
// The one deliberate asymmetry with NewEnv: node positions and neighbour
// tables were drawn from the original config seed and are retained.
func (e *Env) Reset(seed int64) error {
	e.Cfg.Seed = seed
	// Replicate NewEnv's draw order exactly. The RNG is reseeded in place
	// because the medium's fading source and the MAC hold the same
	// *rand.Rand; the key scheme draws next (EG consumes the RNG, pairwise
	// does not), the readings last.
	e.Rng.Seed(seed ^ 0x5eed)
	e.Eng.Reset()
	e.Rec.Reset()
	e.Medium.Reset()
	e.MAC.Reset()
	switch e.Cfg.KeyScheme {
	case KeyPairwise:
		e.Keys = wsncrypto.NewPairwiseScheme([]byte(fmt.Sprintf("master-%d", seed)))
	case KeyEG:
		keys, err := wsncrypto.NewEGScheme(e.Rng, e.Cfg.Nodes, e.Cfg.EGPoolSize, e.Cfg.EGRingSize)
		if err != nil {
			return fmt.Errorf("wsn: %w", err)
		}
		e.Keys = keys
	default:
		return fmt.Errorf("wsn: unknown key scheme %d", e.Cfg.KeyScheme)
	}
	e.nlinks = 0 // slots hold no pointers; Init overwrites each
	clear(e.linkIdx)
	e.Readings[0] = 0
	span := e.Cfg.ReadingMax - e.Cfg.ReadingMin
	for i := 1; i < e.Cfg.Nodes; i++ {
		e.Readings[i] = e.Cfg.ReadingMin
		if span > 0 {
			e.Readings[i] += e.Rng.Int63n(span + 1)
		}
	}
	return nil
}

// ResampleReadings draws fresh sensor readings from the configured range,
// modelling the next measurement epoch on the same deployment.
func (e *Env) ResampleReadings() {
	span := e.Cfg.ReadingMax - e.Cfg.ReadingMin
	for i := 1; i < e.Cfg.Nodes; i++ {
		e.Readings[i] = e.Cfg.ReadingMin
		if span > 0 {
			e.Readings[i] += e.Rng.Int63n(span + 1)
		}
	}
}

// TrueSum is the ground-truth sum over every deployed sensor (excluding the
// base station, which has no reading).
func (e *Env) TrueSum() int64 {
	var s int64
	for _, r := range e.Readings {
		s += r
	}
	return s
}

// TrueCount is the number of sensor nodes (excluding the base station).
func (e *Env) TrueCount() int64 { return int64(e.Cfg.Nodes - 1) }

// ReadingElement returns node id's reading embedded in the field.
func (e *Env) ReadingElement(id topo.NodeID) field.Element {
	return field.FromInt(e.Readings[id])
}

// linkFor returns the sealing state of the a<->b link, keying it on first
// use, or an error when the key scheme gives the pair no shared key.
func (e *Env) linkFor(a, b topo.NodeID) (*wsncrypto.Link, error) {
	k := [2]topo.NodeID{a, b}
	if a > b {
		k = [2]topo.NodeID{b, a}
	}
	if i, ok := e.linkIdx[k]; ok {
		return &e.links[i/linkChunk][i%linkChunk], nil
	}
	key, ok := e.Keys.LinkKey(a, b)
	if !ok {
		return nil, fmt.Errorf("wsn: no link key for %d<->%d", a, b)
	}
	i := e.nlinks
	if int(i/linkChunk) == len(e.links) {
		e.links = append(e.links, new([linkChunk]wsncrypto.Link))
	}
	e.nlinks++
	l := &e.links[i/linkChunk][i%linkChunk]
	l.Init(&key)
	e.linkIdx[k] = i
	return l, nil
}

// AppendSeal encrypts a payload from a to b and appends the envelope to
// dst (see wsncrypto.Link.AppendSeal). Returns dst unchanged and an error
// when the key scheme leaves the pair keyless (possible under EG
// predistribution).
func (e *Env) AppendSeal(dst []byte, a, b topo.NodeID, plaintext []byte) ([]byte, error) {
	l, err := e.linkFor(a, b)
	if err != nil {
		return dst, err
	}
	dir := 0
	if a > b {
		dir = 1
	}
	return l.AppendSeal(dst, dir, plaintext), nil
}

// Seal is AppendSeal into a new slice.
func (e *Env) Seal(a, b topo.NodeID, plaintext []byte) ([]byte, error) {
	return e.AppendSeal(nil, a, b, plaintext)
}

// AppendOpen decrypts a payload sent from a to b and appends the plaintext
// to dst. On error dst is returned unchanged.
func (e *Env) AppendOpen(dst []byte, a, b topo.NodeID, envelope []byte) ([]byte, error) {
	l, err := e.linkFor(a, b)
	if err != nil {
		return dst, err
	}
	return l.AppendOpen(dst, envelope)
}

// Open is AppendOpen into a new slice.
func (e *Env) Open(a, b topo.NodeID, envelope []byte) ([]byte, error) {
	return e.AppendOpen(nil, a, b, envelope)
}

// HasLinkKey reports whether a and b share a key, without deriving it.
func (e *Env) HasLinkKey(a, b topo.NodeID) bool {
	return e.Keys.HasKey(a, b)
}
