// Package cache implements the set-associative, LRU, write-back cache
// hierarchy used by both the baseline out-of-order core and CAPE's
// control processor (paper Table III).
//
// The model is trace-driven and functional-free: an access returns the
// latency to the first hitting level and maintains hit/miss/writeback
// statistics. Coherence (the MESI column of Table III) matters only
// for the multicore baseline runs, where workloads are partitioned and
// sharing is negligible; its cost is subsumed in the per-level tag
// latencies, as in the paper's "cache coherence introduces very
// trivial performance overhead" observation for CAPE.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Ways is the associativity.
	Ways int
	// LatencyCycles is the tag+data access latency of this level.
	LatencyCycles int
}

// Table III configurations.
var (
	// BaselineL1D: 32 kB, 8-way, LRU, 2-cycle tag/data.
	BaselineL1D = Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 2}
	// BaselineL2: 1 MB, 16-way, 14-cycle.
	BaselineL2 = Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 16, LatencyCycles: 14}
	// BaselineL3: 5.5 MB shared, 11-way, 50-cycle, 512 B lines.
	BaselineL3 = Config{Name: "L3", SizeBytes: 5632 << 10, LineBytes: 512, Ways: 11, LatencyCycles: 50}
	// CPL1D is the control processor's L1D (same organization as the
	// baseline's).
	CPL1D = Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 2}
	// CPL2 is the control processor's 1 MB L2 with 512 B lines.
	CPL2 = Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 512, Ways: 16, LatencyCycles: 14}
)

type set struct {
	// tags in LRU order: index 0 is most recently used.
	tags  []uint64
	dirty []bool
	valid []bool
}

// Level is one cache level.
type Level struct {
	cfg      Config
	sets     []set
	numSets  int
	lineBits uint
	// tags/dirty/valid back every set's slices (set i owns ways
	// [i*Ways, (i+1)*Ways)), so Reset clears three arrays in place.
	tags  []uint64
	dirty []bool
	valid []bool
	// Stats.
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// NewLevel builds an empty cache level.
func NewLevel(cfg Config) *Level {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: bad config %+v", cfg))
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if numSets == 0 {
		numSets = 1
	}
	n := numSets * cfg.Ways
	l := &Level{
		cfg: cfg, numSets: numSets,
		tags: make([]uint64, n), dirty: make([]bool, n), valid: make([]bool, n),
	}
	l.sets = make([]set, numSets)
	for i := range l.sets {
		lo, hi := i*cfg.Ways, (i+1)*cfg.Ways
		l.sets[i] = set{tags: l.tags[lo:hi:hi], dirty: l.dirty[lo:hi:hi], valid: l.valid[lo:hi:hi]}
	}
	for lb := cfg.LineBytes; lb > 1; lb >>= 1 {
		l.lineBits++
	}
	return l
}

// Config returns the level's configuration.
func (l *Level) Config() Config { return l.cfg }

// Reset empties the level and zeroes its statistics in place, leaving
// it equivalent to a fresh NewLevel of the same configuration.
func (l *Level) Reset() {
	clear(l.tags)
	clear(l.dirty)
	clear(l.valid)
	l.Hits, l.Misses, l.Writebacks = 0, 0, 0
}

func (l *Level) index(addr uint64) (setIdx int, tag uint64) {
	line := addr >> l.lineBits
	return int(line % uint64(l.numSets)), line
}

// Lookup probes the level without allocation. It returns whether the
// line is present and promotes it to MRU on a hit.
func (l *Level) Lookup(addr uint64, write bool) bool {
	si, tag := l.index(addr)
	s := &l.sets[si]
	for w := 0; w < l.cfg.Ways; w++ {
		if s.valid[w] && s.tags[w] == tag {
			l.Hits++
			l.promote(s, w)
			if write {
				s.dirty[0] = true
			}
			return true
		}
	}
	l.Misses++
	return false
}

// Fill allocates the line (after a miss was resolved below) and
// reports whether a dirty victim was evicted.
func (l *Level) Fill(addr uint64, write bool) (wroteBack bool, victim uint64) {
	si, tag := l.index(addr)
	s := &l.sets[si]
	w := l.cfg.Ways - 1 // LRU victim
	if s.valid[w] && s.dirty[w] {
		wroteBack = true
		victim = s.tags[w] << l.lineBits
		l.Writebacks++
	}
	s.tags[w] = tag
	s.valid[w] = true
	s.dirty[w] = write
	l.promote(s, w)
	return wroteBack, victim
}

func (l *Level) promote(s *set, w int) {
	tag, d, v := s.tags[w], s.dirty[w], s.valid[w]
	copy(s.tags[1:w+1], s.tags[:w])
	copy(s.dirty[1:w+1], s.dirty[:w])
	copy(s.valid[1:w+1], s.valid[:w])
	s.tags[0], s.dirty[0], s.valid[0] = tag, d, v
}

// FillReturningVictim is Fill, additionally reporting any valid line
// (dirty or clean) displaced by the allocation — the hook a victim
// cache attaches to.
func (l *Level) FillReturningVictim(addr uint64, write bool) (victim uint64, hadVictim bool, victimDirty bool) {
	si, _ := l.index(addr)
	s := &l.sets[si]
	w := l.cfg.Ways - 1
	if s.valid[w] {
		hadVictim = true
		victim = s.tags[w] << l.lineBits
		victimDirty = s.dirty[w]
	}
	l.Fill(addr, write) // counts the dirty writeback itself
	return victim, hadVictim, victimDirty
}

// Contains probes without updating LRU state or statistics (test hook).
func (l *Level) Contains(addr uint64) bool {
	si, tag := l.index(addr)
	s := &l.sets[si]
	for w := 0; w < l.cfg.Ways; w++ {
		if s.valid[w] && s.tags[w] == tag {
			return true
		}
	}
	return false
}

// Result summarises one hierarchy access.
type Result struct {
	// LatencyCycles is the load-to-use latency in core cycles.
	LatencyCycles int
	// HitLevel is the index of the level that hit, or len(levels) for
	// a memory access.
	HitLevel int
	// MemBytes counts main-memory traffic generated by this access
	// (fill + any writeback), for bandwidth accounting.
	MemBytes int
}

// Hierarchy chains cache levels over a fixed-latency main memory.
type Hierarchy struct {
	Levels []*Level
	// MemLatencyCycles is the core-cycle cost of a main-memory access
	// (HBM row access + transfer of one line).
	MemLatencyCycles int
}

// NewHierarchy builds a hierarchy from level configs.
func NewHierarchy(memLatency int, cfgs ...Config) *Hierarchy {
	h := &Hierarchy{MemLatencyCycles: memLatency}
	for _, c := range cfgs {
		h.Levels = append(h.Levels, NewLevel(c))
	}
	return h
}

// Access walks the hierarchy for a load (write=false) or store
// (write=true) at addr. Inclusive fill: a miss allocates in every
// level above the hit.
func (h *Hierarchy) Access(addr uint64, write bool) Result {
	var r Result
	for i, l := range h.Levels {
		r.LatencyCycles += l.cfg.LatencyCycles
		if l.Lookup(addr, write) {
			r.HitLevel = i
			// Fill the levels above.
			for j := 0; j < i; j++ {
				if wb, _ := h.Levels[j].Fill(addr, write); wb {
					r.MemBytes += 0 // absorbed by the level below
				}
			}
			return r
		}
	}
	// Main-memory access.
	r.HitLevel = len(h.Levels)
	r.LatencyCycles += h.MemLatencyCycles
	last := len(h.Levels) - 1
	for j := last; j >= 0; j-- {
		wb, _ := h.Levels[j].Fill(addr, write)
		if j == last {
			r.MemBytes += h.Levels[j].cfg.LineBytes
			if wb {
				r.MemBytes += h.Levels[j].cfg.LineBytes
			}
		}
	}
	return r
}

// Reset clears contents and statistics in place, without allocating.
func (h *Hierarchy) Reset() {
	for _, l := range h.Levels {
		l.Reset()
	}
}
