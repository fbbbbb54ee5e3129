package fleet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/station"
	"repro/internal/trace"
)

// The shard supervisor: a per-shard health state machine driven by active
// probes and passive request outcomes, with exponential-backoff + jitter
// restarts and probation before re-admission.
//
//	healthy ── probe failures ──▶ suspect ── more failures ──▶ down
//	   ▲                             │ probe passes               │
//	   └──────────◀──────────────────┘                     backoff expires
//	   │                                                          ▼
//	   └── K healthy probes ◀── restarting ◀── restart succeeds ──┘
//	                                 │ probe fails: back to down, backoff ×2
//
// Active signal: a per-tick probe of the slot — the chaos controller's
// crash verdict (what a remote /healthz probe would observe) plus the
// in-process station's existence and drain state. Passive signal: request
// paths that observed the shard down since the last tick (slot.passive).
// Down slots leave the routing rotation immediately (slot.serving());
// restarting slots stay out until ReadmitAfter consecutive healthy probes
// pass — probation keeps a flapping shard from thrashing the ring.

// SupervisorConfig tunes the shard supervisor. Zero values take the
// documented defaults; tests shrink every interval to keep smokes fast.
type SupervisorConfig struct {
	// ProbeInterval is the supervisor tick (default 100ms).
	ProbeInterval time.Duration
	// SuspectAfter is the consecutive probe failures that demote a healthy
	// shard to suspect (default 1 — first failure draws suspicion).
	SuspectAfter int
	// DownAfter is the consecutive probe failures that evict the shard
	// from the rotation (default 2).
	DownAfter int
	// RestartBackoff is the delay before the first restart attempt; each
	// failed attempt doubles it up to MaxBackoff (defaults 100ms, 2s).
	RestartBackoff time.Duration
	MaxBackoff     time.Duration
	// ReadmitAfter is the consecutive healthy probes a restarting shard
	// must pass before rejoining the rotation (default 2).
	ReadmitAfter int
	// PassiveFailures is how many request-path failures within one tick
	// count as a failed probe even if the active probe passed (default 1).
	PassiveFailures int64
	// Seed drives restart jitter (deterministic, like everything else).
	Seed int64
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.PassiveFailures <= 0 {
		c.PassiveFailures = 1
	}
	return c
}

// supSlot is the supervisor's private bookkeeping for one shard. Only the
// supervisor goroutine touches it, so no locking.
type supSlot struct {
	failStreak    int
	healthyStreak int
	backoff       time.Duration
	nextRestart   time.Time
	attempts      int64 // restart attempts (jitter counter)
	killed        bool  // station torn down; restart must rebuild
}

func (f *Fleet) startSupervisor(cfg SupervisorConfig) {
	f.supStop = make(chan struct{})
	f.supDone = make(chan struct{})
	go f.supervise(cfg)
}

func (f *Fleet) stopSupervisor() {
	if f.supStop == nil {
		return
	}
	select {
	case <-f.supStop:
	default:
		close(f.supStop)
	}
	<-f.supDone
}

// supervise is the probe loop.
func (f *Fleet) supervise(cfg SupervisorConfig) {
	defer close(f.supDone)
	book := make([]supSlot, len(f.slots))
	tick := time.NewTicker(cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.supStop:
			return
		case <-tick.C:
		}
		for i := range f.slots {
			f.superviseSlot(cfg, f.slots[i], &book[i])
		}
	}
}

// superviseSlot runs one tick of one shard's state machine.
func (f *Fleet) superviseSlot(cfg SupervisorConfig, sl *slot, b *supSlot) {
	crashed, kill := f.cfg.Chaos.CrashActive(sl.id)
	// A kill window really tears the station down: admitted work is
	// drained on a short leash and the slot's station becomes nil, so
	// recovery must rebuild it from the template — the difference between
	// a process pause and a process death.
	if crashed && kill && !b.killed {
		if st := sl.st.Load(); st != nil {
			sl.st.Store(nil)
			ctx, cancel := context.WithTimeout(context.Background(), cfg.ProbeInterval*10)
			_ = st.Drain(ctx)
			cancel()
		}
		b.killed = true
	}

	st := sl.st.Load()
	ok := !crashed && st != nil && !st.Draining()
	passive := sl.passive.Swap(0)
	if ok && passive >= cfg.PassiveFailures {
		ok = false
	}

	state := sl.State()
	switch state {
	case trace.ShardHealthy, trace.ShardSuspect:
		if ok {
			if state == trace.ShardSuspect {
				b.failStreak = 0
				f.transition(sl, trace.ShardHealthy, "probe recovered")
			}
			return
		}
		b.failStreak++
		switch {
		case b.failStreak >= cfg.DownAfter:
			b.backoff = cfg.RestartBackoff
			b.nextRestart = time.Now().Add(b.backoff + f.jitter(cfg, b))
			f.transition(sl, trace.ShardDown,
				fmt.Sprintf("failures=%d passive=%d", b.failStreak, passive))
		case b.failStreak >= cfg.SuspectAfter && state == trace.ShardHealthy:
			f.transition(sl, trace.ShardSuspect,
				fmt.Sprintf("failures=%d passive=%d", b.failStreak, passive))
		}

	case trace.ShardDown:
		if time.Now().Before(b.nextRestart) {
			return
		}
		b.attempts++
		if crashed {
			// The fault still holds the shard; count the attempt and back
			// off further — exactly what a failed process respawn costs.
			b.backoff = min(b.backoff*2, cfg.MaxBackoff)
			b.nextRestart = time.Now().Add(b.backoff + f.jitter(cfg, b))
			f.emit(sl.id, trace.TypeShard, trace.ShardDown,
				fmt.Sprintf("restart attempt %d failed; backoff %v", b.attempts, b.backoff))
			return
		}
		if b.killed {
			st, err := station.New(f.shardConfig(sl.id))
			if err != nil {
				b.backoff = min(b.backoff*2, cfg.MaxBackoff)
				b.nextRestart = time.Now().Add(b.backoff + f.jitter(cfg, b))
				f.emit(sl.id, trace.TypeShard, trace.ShardDown,
					fmt.Sprintf("rebuild failed: %v; backoff %v", err, b.backoff))
				return
			}
			sl.st.Store(st)
			b.killed = false
		}
		f.metrics.restarts.Inc()
		b.healthyStreak = 0
		f.transition(sl, trace.ShardRestarting,
			fmt.Sprintf("attempt %d; probation %d probes", b.attempts, cfg.ReadmitAfter))

	case trace.ShardRestarting:
		if !ok {
			b.backoff = min(b.backoff*2, cfg.MaxBackoff)
			b.nextRestart = time.Now().Add(b.backoff + f.jitter(cfg, b))
			f.transition(sl, trace.ShardDown,
				fmt.Sprintf("probation probe failed; backoff %v", b.backoff))
			return
		}
		b.healthyStreak++
		if b.healthyStreak >= cfg.ReadmitAfter {
			b.failStreak = 0
			b.backoff = 0
			f.transition(sl, trace.ShardHealthy,
				fmt.Sprintf("re-admitted after %d healthy probes", b.healthyStreak))
		}
	}
}

// transition applies and emits a state change.
func (f *Fleet) transition(sl *slot, state, detail string) {
	sl.setState(state)
	f.emit(sl.id, trace.TypeShard, state, detail)
}

// jitter derives a deterministic restart jitter in [0, backoff/2) from
// the supervisor seed, the shard, and the attempt counter — seeded like
// the chaos controller's draws, so runs replay exactly.
func (f *Fleet) jitter(cfg SupervisorConfig, b *supSlot) time.Duration {
	if b.backoff <= 1 {
		return 0
	}
	x := uint64(cfg.Seed) ^ uint64(b.attempts)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return time.Duration(x % uint64(b.backoff/2))
}
