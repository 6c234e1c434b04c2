package csb

import (
	"testing"

	"cape/internal/sram"
	"cape/internal/telemetry"
	"cape/internal/tt"
)

// matchSeq is a mixed sequence exercising every search flavour plus
// non-search kinds (which must contribute no match bits).
func matchSeq(x uint64) []tt.MicroOp {
	return []tt.MicroOp{
		{Kind: tt.KSearch, Sub: 3, Key: sram.Key{}.Match1(2).Match0(5), Acc: sram.AccSet, Cycles: 1},
		{Kind: tt.KSearchAll, Key: sram.Key{}.Match1(1), Acc: sram.AccOr, Cycles: 1},
		{Kind: tt.KSearchX, Row: 5, X: x, Acc: sram.AccSet, Cycles: 1},
		{Kind: tt.KUpdateAll, Row: 7, Value: true, Cycles: 1},
		{Kind: tt.KReduce, Sub: 0, Cycles: 1},
	}
}

func TestMatchBitsCounted(t *testing.T) {
	c := New(4)
	c.Run(matchSeq(0xF0F0F0F0))
	// KSearch: 1 one-bit + 1 zero-bit. KSearchAll: 1 one-bit x 32
	// subarrays. KSearchX: popcount(0xF0F0F0F0)=16 ones, 16 zeros.
	if want := uint64(1 + 32 + 16); c.Stats.Match1Bits != want {
		t.Errorf("Match1Bits = %d, want %d", c.Stats.Match1Bits, want)
	}
	if want := uint64(1 + 0 + 16); c.Stats.Match0Bits != want {
		t.Errorf("Match0Bits = %d, want %d", c.Stats.Match0Bits, want)
	}
}

// TestMatchBitsStatsIdentity pins both engines — the scalar reference
// and the bit-slice engine — to identical Stats, match bits included.
func TestMatchBitsStatsIdentity(t *testing.T) {
	sc := NewScalar(4)
	sc.Run(matchSeq(0x0000FFFF))
	bi := New(4)
	bi.Run(matchSeq(0x0000FFFF))
	if bi.Stats != sc.Stats {
		t.Errorf("bitslice stats diverge from scalar:\n  %+v\nvs %+v", bi.Stats, sc.Stats)
	}
}

func TestPMUFlushMatchesStats(t *testing.T) {
	var pmu telemetry.PMU
	c := New(8)
	c.SetPMU(&pmu)
	ops := matchSeq(0x00FF00FF)
	c.Run(ops)
	c.Run(ops)

	pc := pmu.Snapshot()
	if pc.CSBRuns != 2 {
		t.Fatalf("CSBRuns = %d, want 2", pc.CSBRuns)
	}
	s := c.Stats
	if pc.SearchSerial != s.SearchSerial || pc.SearchParallel != s.SearchParallel ||
		pc.UpdateParallel != s.UpdateParallel || pc.Reduce != s.Reduce ||
		pc.CSBCycles != s.Cycles ||
		pc.Match0Bits != s.Match0Bits || pc.Match1Bits != s.Match1Bits {
		t.Errorf("PMU snapshot diverges from Stats:\npmu   %+v\nstats %+v", pc, s)
	}
	if want := uint64(c.units()) * uint64(2*len(ops)); pc.WordsEvaluated != want {
		t.Errorf("WordsEvaluated = %d, want %d", pc.WordsEvaluated, want)
	}
	if want := uint64(c.MaxVL()) * uint64(2*len(ops)); pc.LanesActive != want {
		t.Errorf("LanesActive = %d, want %d (full window)", pc.LanesActive, want)
	}
}
