package server

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cape/internal/core"
	"cape/internal/telemetry"
	"cape/internal/ucode"
)

// Pool is a sharded pool of reusable machines: one shard per distinct
// configuration (name, chain count, backend, RAM size). Building a
// machine allocates its main memory (160 MiB at the workload layout)
// and its vector state, so the steady-state job path reuses machines
// via Machine.Reset instead of constructing them per job. Reset costs
// in proportion to what the previous job wrote, not to the machine's
// size. Each shard lazily builds up to its capacity and then blocks
// further Gets until a machine is returned.
type Pool struct {
	perShard int

	mu     sync.Mutex
	shards map[string]*shard
}

type shard struct {
	key  string
	idle chan *core.Machine
	// ucache is the shard's shared microcode template cache: every
	// machine of the shard lowers through it, so a program's templates
	// compile once per shard rather than once per pooled machine.
	// Templates are immutable, making the sharing race-free. Nil when
	// the configuration disables caching.
	ucache *ucode.Cache
	// pmu is the shard's always-on perf-counter block, shared by every
	// machine of the shard the same way (atomic counters, race-free).
	pmu *telemetry.PMU

	mu      sync.Mutex
	created int
	reuses  int64
}

// ShardKey identifies a pool shard: machines are interchangeable iff
// every field that affects construction matches. The fault schedule is
// included — a machine carrying an injection stream must never serve a
// fault-free configuration.
func ShardKey(cfg core.Config) string {
	return fmt.Sprintf("%s/chains=%d/backend=%d/ram=%d/ucode=%d/faults=%s",
		cfg.Name, cfg.Chains, cfg.Backend, cfg.RAMBytes, cfg.UcodeCacheSize, cfg.Faults.Key())
}

// NewPool builds a pool holding up to perShard machines per
// configuration.
func NewPool(perShard int) *Pool {
	if perShard <= 0 {
		perShard = 1
	}
	return &Pool{perShard: perShard, shards: make(map[string]*shard)}
}

func (p *Pool) shard(cfg core.Config) *shard {
	key := ShardKey(cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.shards[key]
	if !ok {
		s = &shard{key: key, idle: make(chan *core.Machine, p.perShard), pmu: &telemetry.PMU{}}
		if cfg.UcodeCache != nil {
			s.ucache = cfg.UcodeCache
		} else if cfg.UcodeCacheSize >= 0 {
			s.ucache = ucode.NewCache(cfg.UcodeCacheSize)
		}
		p.shards[key] = s
	}
	return s
}

// PMU returns the shard's shared perf-counter block for cfg, creating
// the shard if needed (the server registers it on /metrics when it
// first sees a configuration).
func (p *Pool) PMU(cfg core.Config) *telemetry.PMU {
	return p.shard(cfg).pmu
}

// Get returns a reset machine of the given configuration, building one
// only while the shard is below capacity; otherwise it waits for a
// machine to be returned or for ctx to expire.
func (p *Pool) Get(ctx context.Context, cfg core.Config) (*core.Machine, error) {
	s := p.shard(cfg)
	select {
	case m := <-s.idle:
		s.noteReuse()
		return m, nil
	default:
	}
	s.mu.Lock()
	if s.created < cap(s.idle) {
		s.created++
		s.mu.Unlock()
		// Every machine of the shard shares the shard's template cache
		// (nil keeps lowering uncached) and perf counters.
		cfg.UcodeCache = s.ucache
		if s.ucache == nil {
			cfg.UcodeCacheSize = -1
		}
		cfg.PMU = s.pmu
		return core.New(cfg), nil
	}
	s.mu.Unlock()
	select {
	case m := <-s.idle:
		s.noteReuse()
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (s *shard) noteReuse() {
	s.mu.Lock()
	s.reuses++
	s.mu.Unlock()
}

// Put resets m and returns it to its shard.
func (p *Pool) Put(cfg core.Config, m *core.Machine) {
	m.Reset()
	s := p.shard(cfg)
	select {
	case s.idle <- m:
	default:
		// Shard is already full (cannot happen while Get/Put are
		// balanced); drop the machine for the GC.
	}
}

// ShardStats snapshots one shard for /healthz and tests.
type ShardStats struct {
	Key     string                 `json:"key"`
	Created int                    `json:"created"`
	Idle    int                    `json:"idle"`
	Reuses  int64                  `json:"reuses"`
	Ucode   ucode.CacheStats       `json:"ucode"`
	Perf    telemetry.PerfCounters `json:"perf"`
}

// Stats snapshots all shards, sorted by key.
func (p *Pool) Stats() []ShardStats {
	p.mu.Lock()
	shards := make([]*shard, 0, len(p.shards))
	for _, s := range p.shards {
		shards = append(shards, s)
	}
	p.mu.Unlock()
	stats := make([]ShardStats, 0, len(shards))
	for _, s := range shards {
		s.mu.Lock()
		stats = append(stats, ShardStats{
			Key: s.key, Created: s.created, Idle: len(s.idle), Reuses: s.reuses,
			Ucode: s.ucache.Stats(), Perf: s.pmu.Snapshot(),
		})
		s.mu.Unlock()
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Key < stats[j].Key })
	return stats
}

// PerfAggregate sums the perf counters of every shard — the
// server-wide view /v1/status reports next to the per-shard split.
func (p *Pool) PerfAggregate() telemetry.PerfCounters {
	p.mu.Lock()
	shards := make([]*shard, 0, len(p.shards))
	for _, s := range p.shards {
		shards = append(shards, s)
	}
	p.mu.Unlock()
	var agg telemetry.PerfCounters
	for _, s := range shards {
		agg.Add(s.pmu.Snapshot())
	}
	return agg
}

// UcodeStats aggregates template-cache effectiveness across all
// shards, feeding the caped_ucode_cache_* metrics.
func (p *Pool) UcodeStats() ucode.CacheStats {
	p.mu.Lock()
	shards := make([]*shard, 0, len(p.shards))
	for _, s := range p.shards {
		shards = append(shards, s)
	}
	p.mu.Unlock()
	var agg ucode.CacheStats
	for _, s := range shards {
		st := s.ucache.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
		agg.Entries += st.Entries
		agg.Capacity += st.Capacity
	}
	return agg
}
