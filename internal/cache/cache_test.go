package cache

import (
	"math/rand"
	"testing"
)

func TestLevelHitMiss(t *testing.T) {
	l := NewLevel(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2, LatencyCycles: 1})
	if l.Lookup(0x100, false) {
		t.Fatal("cold cache should miss")
	}
	l.Fill(0x100, false)
	if !l.Lookup(0x100, false) {
		t.Fatal("filled line should hit")
	}
	if !l.Lookup(0x104, false) {
		t.Fatal("same line, different offset should hit")
	}
	if l.Hits != 2 || l.Misses != 1 {
		t.Fatalf("stats: hits %d misses %d", l.Hits, l.Misses)
	}
}

func TestLevelLRUEviction(t *testing.T) {
	// 2 ways, 8 sets of 64B lines -> addresses 64*8 apart collide.
	l := NewLevel(Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Ways: 2, LatencyCycles: 1})
	stride := uint64(64 * 8)
	l.Fill(0*stride, false)
	l.Fill(1*stride, false)
	l.Lookup(0*stride, false) // touch A: LRU order (A, B)
	l.Fill(2*stride, false)   // evicts B
	if !l.Contains(0 * stride) {
		t.Fatal("recently used line was evicted")
	}
	if l.Contains(1 * stride) {
		t.Fatal("LRU victim not evicted")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	l := NewLevel(Config{Name: "t", SizeBytes: 128, LineBytes: 64, Ways: 1, LatencyCycles: 1})
	l.Fill(0, true) // dirty
	wb, victim := l.Fill(128, false)
	if !wb || victim != 0 {
		t.Fatalf("expected writeback of addr 0, got wb=%v victim=%#x", wb, victim)
	}
	wb, _ = l.Fill(256, false) // previous fill was clean
	if wb {
		t.Fatal("clean eviction must not write back")
	}
	if l.Writebacks != 1 {
		t.Fatalf("writebacks: %d", l.Writebacks)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(300, BaselineL1D, BaselineL2, BaselineL3)
	r := h.Access(0x1000, false)
	if r.HitLevel != 3 {
		t.Fatalf("cold access should go to memory, hit level %d", r.HitLevel)
	}
	want := 2 + 14 + 50 + 300
	if r.LatencyCycles != want {
		t.Fatalf("cold latency %d want %d", r.LatencyCycles, want)
	}
	if r.MemBytes != 512 {
		t.Fatalf("cold access memory traffic %d want 512 (L3 line)", r.MemBytes)
	}
	r = h.Access(0x1000, false)
	if r.HitLevel != 0 || r.LatencyCycles != 2 {
		t.Fatalf("warm access: level %d latency %d", r.HitLevel, r.LatencyCycles)
	}
	if r.MemBytes != 0 {
		t.Fatal("L1 hit should not touch memory")
	}
}

func TestHierarchyInclusiveFill(t *testing.T) {
	h := NewHierarchy(300, BaselineL1D, BaselineL2)
	h.Access(0x4000, false)
	// Evict from L1 by filling conflicting lines; L2 should still hit.
	l1 := h.Levels[0]
	stride := uint64(64 * (32 << 10) / (64 * 8)) // l1 sets * line
	for i := uint64(1); i <= 8; i++ {
		h.Access(0x4000+i*stride*64, false)
	}
	_ = l1
	r := h.Access(0x4000, false)
	if r.HitLevel > 1 {
		t.Fatalf("line evicted from L2 unexpectedly (hit level %d)", r.HitLevel)
	}
}

func TestTableIIIConfigs(t *testing.T) {
	cases := []struct {
		cfg  Config
		size int
		ways int
		lat  int
	}{
		{BaselineL1D, 32 << 10, 8, 2},
		{BaselineL2, 1 << 20, 16, 14},
		{BaselineL3, 5632 << 10, 11, 50},
		{CPL2, 1 << 20, 16, 14},
	}
	for _, tc := range cases {
		if tc.cfg.SizeBytes != tc.size || tc.cfg.Ways != tc.ways || tc.cfg.LatencyCycles != tc.lat {
			t.Errorf("%s config deviates from Table III: %+v", tc.cfg.Name, tc.cfg)
		}
	}
	if BaselineL3.LineBytes != 512 {
		t.Error("L3 line must be 512 B per Table III")
	}
}

// TestHitRateImprovesWithSize is a sanity property: a random working
// set that exceeds L1 but fits in L2 must show L2 hits dominating
// repeated-pass misses.
func TestHitRateImprovesWithSize(t *testing.T) {
	h := NewHierarchy(300, BaselineL1D, BaselineL2)
	rng := rand.New(rand.NewSource(3))
	working := make([]uint64, 4096) // 4096 * 64B = 256 kB: > L1, < L2
	for i := range working {
		working[i] = uint64(i) * 64
	}
	// First pass: cold misses.
	for _, a := range working {
		h.Access(a, false)
	}
	l2Before := h.Levels[1].Hits
	for pass := 0; pass < 3; pass++ {
		for _, a := range working {
			h.Access(a, false)
		}
	}
	_ = rng
	if h.Levels[1].Hits-l2Before < uint64(len(working)) {
		t.Fatalf("L2 should capture the working set: hits %d", h.Levels[1].Hits)
	}
}

func TestReset(t *testing.T) {
	h := NewHierarchy(300, BaselineL1D)
	h.Access(0, false)
	h.Reset()
	if h.Levels[0].Hits != 0 || h.Levels[0].Misses != 0 {
		t.Fatal("reset should clear stats")
	}
	if h.Levels[0].Contains(0) {
		t.Fatal("reset should clear contents")
	}
}

// TestResetAllocatesNothing pins the in-place reset: a pooled
// machine's CP caches are reset after every job, so Reset must not
// rebuild the levels.
func TestResetAllocatesNothing(t *testing.T) {
	h := NewHierarchy(300, CPL1D, CPL2)
	for a := uint64(0); a < 1<<20; a += 4096 {
		h.Access(a, a%3 == 0)
	}
	if n := testing.AllocsPerRun(10, h.Reset); n != 0 {
		t.Fatalf("Hierarchy.Reset allocates %.0f times per call", n)
	}
}

// TestResetLevelReplaysLikeFresh: after a random access stream, a
// reset level must replay a second stream with exactly the hits,
// misses, writebacks and victims of a freshly built level.
func TestResetLevelReplaysLikeFresh(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 4096, LineBytes: 64, Ways: 4, LatencyCycles: 1}
	rng := rand.New(rand.NewSource(7))
	stream := func() (addrs []uint64, writes []bool) {
		for i := 0; i < 5000; i++ {
			addrs = append(addrs, uint64(rng.Intn(1<<15)))
			writes = append(writes, rng.Intn(3) == 0)
		}
		return addrs, writes
	}
	replay := func(l *Level, addrs []uint64, writes []bool) []uint64 {
		var victims []uint64
		for i, a := range addrs {
			if !l.Lookup(a, writes[i]) {
				if wb, v := l.Fill(a, writes[i]); wb {
					victims = append(victims, v)
				}
			}
		}
		return victims
	}
	used := NewLevel(cfg)
	warm, warmWrites := stream()
	replay(used, warm, warmWrites)
	used.Reset()
	fresh := NewLevel(cfg)
	addrs, writes := stream()
	vu, vf := replay(used, addrs, writes), replay(fresh, addrs, writes)
	if used.Hits != fresh.Hits || used.Misses != fresh.Misses || used.Writebacks != fresh.Writebacks {
		t.Fatalf("reset level: hits/misses/writebacks %d/%d/%d, fresh %d/%d/%d",
			used.Hits, used.Misses, used.Writebacks, fresh.Hits, fresh.Misses, fresh.Writebacks)
	}
	if len(vu) != len(vf) {
		t.Fatalf("victim counts differ: %d vs %d", len(vu), len(vf))
	}
	for i := range vu {
		if vu[i] != vf[i] {
			t.Fatalf("victim %d: %#x vs %#x", i, vu[i], vf[i])
		}
	}
}
