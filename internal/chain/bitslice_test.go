package chain

import (
	"math/rand"
	"testing"

	"cape/internal/sram"
)

// randomChain builds a scalar chain with fully random state: every
// subarray row, every tag bank, the enable latch and the active mask.
// Element values are drawn at the given SEW so the register rows carry
// the zero-upper-slice shape narrow-SEW storage produces, plus raw
// random rows for the scratch/meta space.
func randomChain(rng *rand.Rand, sew int) *Chain {
	ch := New()
	mask := uint32(1)<<uint(sew) - 1
	if sew == 32 {
		mask = ^uint32(0)
	}
	// Register-shaped contents: bit-sliced elements masked to SEW.
	for col := 0; col < ColsPerChain; col++ {
		ch.WriteElement(rng.Intn(8), col, rng.Uint32()&mask)
	}
	// Raw rows (including meta and carry space): arbitrary bits.
	for s := 0; s < SubPerChain; s++ {
		sub := ch.Sub(s)
		for r := 0; r < sram.Rows; r++ {
			if rng.Intn(2) == 0 {
				sub.WriteRow(r, rng.Uint32(), sram.AllCols)
			}
		}
		sub.SetTag(rng.Uint32())
	}
	ch.SetEnable(EnLoad, rng.Uint32())
	ch.SetActiveMask(rng.Uint32())
	return ch
}

// chainsEqual compares complete architectural state.
func chainsEqual(t *testing.T, what string, a, b *Chain) {
	t.Helper()
	if a.Enable() != b.Enable() {
		t.Fatalf("%s: enable %#x != %#x", what, a.Enable(), b.Enable())
	}
	if a.ActiveMask() != b.ActiveMask() {
		t.Fatalf("%s: active %#x != %#x", what, a.ActiveMask(), b.ActiveMask())
	}
	for s := 0; s < SubPerChain; s++ {
		if a.TagOf(s) != b.TagOf(s) {
			t.Fatalf("%s: sub %d tag %#x != %#x", what, s, a.TagOf(s), b.TagOf(s))
		}
		ra, rb := a.Sub(s).Snapshot(), b.Sub(s).Snapshot()
		if ra != rb {
			t.Fatalf("%s: sub %d rows diverged", what, s)
		}
	}
}

// TestPackUnpackRoundTrip: PackChain followed by UnpackChain must be
// the identity on complete chain state, for every SEW's value shape,
// at chain counts whose lane spaces straddle the 64-bit word boundary,
// and independently per slot k (packing chain k must not disturb the
// lanes of chain j != k).
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 3, 4, 5} { // lanes 32..160: 1..3 words
		for _, sew := range []int{8, 16, 32} {
			bm := NewBitmaps(n)
			refs := make([]*Chain, n)
			for k := 0; k < n; k++ {
				refs[k] = randomChain(rng, sew)
				bm.PackChain(k, refs[k])
			}
			// Unpack in reverse order: later packs must not have bled
			// into earlier slots.
			for k := n - 1; k >= 0; k-- {
				chainsEqual(t, "round trip", bm.UnpackChain(k), refs[k])
			}
		}
	}
}

// TestBitmapsRowWise: the row-granularity view must agree with the
// scalar chain's ReadRowWise for packed state, and WriteRowWise must
// be readable back both row-wise and through a full unpack.
func TestBitmapsRowWise(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const n = 3
	bm := NewBitmaps(n)
	refs := make([]*Chain, n)
	for k := 0; k < n; k++ {
		refs[k] = randomChain(rng, 32)
		bm.PackChain(k, refs[k])
	}
	for k := 0; k < n; k++ {
		for s := 0; s < SubPerChain; s += 5 {
			for r := 0; r < sram.Rows; r += 7 {
				if got, want := bm.ReadRowWise(k, s, r), refs[k].ReadRowWise(s, r); got != want {
					t.Fatalf("chain %d sub %d row %d: %#x != scalar %#x", k, s, r, got, want)
				}
			}
		}
	}
	bm.WriteRowWise(1, 4, 9, 0xDEADBEEF)
	if got := bm.ReadRowWise(1, 4, 9); got != 0xDEADBEEF {
		t.Fatalf("row-wise write read back %#x", got)
	}
	if got := bm.UnpackChain(1).ReadRowWise(4, 9); got != 0xDEADBEEF {
		t.Fatalf("row-wise write after unpack %#x", got)
	}
	// Neighbouring chains' lanes must be untouched.
	if got, want := bm.ReadRowWise(0, 4, 9), refs[0].ReadRowWise(4, 9); got != want {
		t.Fatalf("row-wise write bled into chain 0: %#x != %#x", got, want)
	}
}

// TestBitmapsLayout pins the lane mapping (element interleave: lane
// col*N + k) and the fresh-state invariants shared with chain.New.
func TestBitmapsLayout(t *testing.T) {
	bm := NewBitmaps(4)
	if bm.Lanes() != 128 || bm.Words() != 2 {
		t.Fatalf("lanes/words: %d/%d", bm.Lanes(), bm.Words())
	}
	if got := bm.Lane(3, 2); got != 2*4+3 {
		t.Fatalf("Lane(3,2) = %d", got)
	}
	// Fresh bitmaps mirror chain.New: rows and tags clear, enable and
	// active full (including tail bits — Fill contract).
	for s := 0; s < SubPerChain; s++ {
		if bm.Tags[s][0] != 0 || bm.Tags[s][1] != 0 {
			t.Fatalf("fresh tag bank %d not clear", s)
		}
	}
	for i := 0; i < bm.Lanes(); i++ {
		if !bm.Enable.Get(i) || !bm.Active.Get(i) {
			t.Fatalf("fresh enable/active clear at lane %d", i)
		}
	}
	// Reset restores the fresh state after arbitrary mutation. A direct
	// row write declares itself with MarkRow, as every engine writer
	// does; tags, enable and active need no marking.
	bm.Row(0, 0).Fill(true)
	bm.MarkRow(0)
	bm.Tags[7].Fill(true)
	bm.Enable.Clear(5)
	bm.Active.Clear(9)
	bm.Reset()
	if bm.Row(0, 0)[0] != 0 || bm.Tags[7][0] != 0 {
		t.Fatal("Reset left row/tag bits")
	}
	if !bm.Enable.Get(5) || !bm.Active.Get(9) {
		t.Fatal("Reset did not restore enable/active")
	}
}

// TestBitmapsPanics: out-of-range subarray and row indexing must panic
// exactly like the scalar model.
func TestBitmapsPanics(t *testing.T) {
	bm := NewBitmaps(1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"sub high", func() { bm.Row(SubPerChain, 0) }},
		{"sub negative", func() { bm.Row(-1, 0) }},
		{"row high", func() { bm.Row(0, sram.Rows) }},
		{"row negative", func() { bm.Row(0, -1) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

// TestBitmapsResetAfterPack: PackChain and WriteRowWise mark every row
// they set bits in, so Reset after packing random chains restores the
// exact image of freshly built bitmaps.
func TestBitmapsResetAfterPack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 3
	bm, fresh := NewBitmaps(n), NewBitmaps(n)
	for k := 0; k < n; k++ {
		bm.PackChain(k, randomChain(rng, 32))
	}
	bm.WriteRowWise(1, 4, sram.Rows-1, 0x8001)
	bm.Reset()
	same := func(what string, a, b sram.Bitmap) {
		for w := range a {
			if a[w] != b[w] {
				t.Fatalf("%s word %d: %#x after Reset, fresh %#x", what, w, a[w], b[w])
			}
		}
	}
	for i := range bm.Rows {
		same("row", bm.Rows[i], fresh.Rows[i])
	}
	for s := range bm.Tags {
		same("tag", bm.Tags[s], fresh.Tags[s])
	}
	same("enable", bm.Enable, fresh.Enable)
	same("active", bm.Active, fresh.Active)
	if d := bm.DirtyRows(); d != 0 {
		t.Fatalf("Reset left dirty rows %#x", d)
	}
}
