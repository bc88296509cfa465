package transcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/selfheal"
	"repro/internal/tcg"
)

func testBlock(pc uint64, n int) *tcg.Block {
	b := tcg.NewBlock()
	b.GuestPC = pc
	b.GuestEnd = pc + uint64(4*n)
	for i := 0; i < n; i++ {
		b.MovI(b.Temp(), int64(i)*7)
	}
	b.Exit(b.GuestEnd)
	return b
}

func blocksEqual(a, b *tcg.Block) bool {
	if a.NumTemps != b.NumTemps || a.NumLabels != b.NumLabels ||
		a.GuestPC != b.GuestPC || a.GuestEnd != b.GuestEnd ||
		len(a.Insts) != len(b.Insts) {
		return false
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			return false
		}
	}
	return true
}

func TestStoreLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blk := testBlock(0x1000, 3)
	if err := c.Store("img-a", 0x1000, selfheal.TierFull, blk); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load("img-a", 0x1000, selfheal.TierFull)
	if !ok || !blocksEqual(got, blk) {
		t.Fatalf("Load = (%v, %v), want stored block", got, ok)
	}
	// Misses: wrong image, wrong pc, wrong tier.
	if _, ok := c.Load("img-b", 0x1000, selfheal.TierFull); ok {
		t.Fatal("hit on wrong image")
	}
	if _, ok := c.Load("img-a", 0x2000, selfheal.TierFull); ok {
		t.Fatal("hit on wrong pc")
	}
	if _, ok := c.Load("img-a", 0x1000, selfheal.TierNoOpt); ok {
		t.Fatal("hit on wrong tier")
	}
	// Load must return an independent copy.
	got.Insts[0].Imm = 999
	again, _ := c.Load("img-a", 0x1000, selfheal.TierFull)
	if again.Insts[0].Imm == 999 {
		t.Fatal("Load aliases cache-internal block")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenRecoversEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]*tcg.Block{}
	for pc := uint64(0x1000); pc < 0x1000+8*4; pc += 4 {
		blk := testBlock(pc, int(pc%5)+1)
		want[pc] = blk
		if err := c.Store("img", pc, selfheal.TierFull, blk); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	c2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.Loaded != len(want) || st.CorruptSkipped != 0 {
		t.Fatalf("reopen stats = %+v, want %d loaded, 0 corrupt", st, len(want))
	}
	for pc, blk := range want {
		got, ok := c2.Load("img", pc, selfheal.TierFull)
		if !ok || !blocksEqual(got, blk) {
			t.Fatalf("pc %#x: reopened entry mismatch", pc)
		}
	}
}

// TestCorruptEntrySkipped flips bytes inside a journaled entry: reopen
// must drop exactly that entry (checksum failure), keep the rest, and a
// Load of the dropped key must miss (degrade to retranslation).
func TestCorruptEntrySkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{0x1000, 0x2000, 0x3000} {
		if err := c.Store("img", pc, selfheal.TierFull, testBlock(pc, 4)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	// Flip bytes in the middle line (the 0x2000 entry) without touching
	// its framing: corrupt a digit inside the JSON body.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("journal has %d lines, want >= 3", len(lines))
	}
	mid := lines[1]
	idx := bytes.Index(mid, []byte(`"pc":8192`))
	if idx < 0 {
		t.Fatalf("middle line is not the 0x2000 entry: %s", mid)
	}
	// Change the PC value: checksum no longer matches.
	corrupted := bytes.Replace(mid, []byte(`"pc":8192`), []byte(`"pc":8193`), 1)
	lines[1] = corrupted
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.CorruptSkipped != 1 {
		t.Fatalf("CorruptSkipped = %d, want 1", st.CorruptSkipped)
	}
	if st.Loaded != 2 {
		t.Fatalf("Loaded = %d, want 2", st.Loaded)
	}
	if _, ok := c2.Load("img", 0x2000, selfheal.TierFull); ok {
		t.Fatal("corrupted entry served from cache")
	}
	for _, pc := range []uint64{0x1000, 0x3000} {
		if _, ok := c2.Load("img", pc, selfheal.TierFull); !ok {
			t.Fatalf("intact entry %#x lost", pc)
		}
	}
	// The dropped entry can be re-stored (retranslation path).
	if err := c2.Store("img", 0x2000, selfheal.TierFull, testBlock(0x2000, 4)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Load("img", 0x2000, selfheal.TierFull); !ok {
		t.Fatal("re-stored entry not served")
	}
}

// TestTornTailTruncated cuts the journal mid-line: reopen must drop the
// fragment, truncate the file, and appends must produce a parseable
// journal.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{0x1000, 0x2000} {
		if err := c.Store("img", pc, selfheal.TierFull, testBlock(pc, 4)); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(raw) - len(raw)/4 // mid-final-line
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Loaded != 1 {
		t.Fatalf("Loaded = %d after tear, want 1", st.Loaded)
	}
	if err := c2.Store("img", 0x3000, selfheal.TierFull, testBlock(0x3000, 2)); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	c3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	st := c3.Stats()
	if st.Loaded != 2 || st.CorruptSkipped != 0 {
		t.Fatalf("final reopen stats = %+v, want 2 loaded, 0 corrupt", st)
	}
}

// TestInjectedCorruption arms SiteCacheCorrupt: the Nth store journals a
// bad checksum; reopen must skip exactly that entry.
func TestInjectedCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	inj := faults.NewInjector()
	inj.Arm(faults.SiteCacheCorrupt, 2, faults.TrapMiscompile)
	c, err := Open(path, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range []uint64{0x1000, 0x2000, 0x3000} {
		if err := c.Store("img", pc, selfheal.TierFull, testBlock(pc, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// In-memory copies stay good even for the corrupted journal line.
	for _, pc := range []uint64{0x1000, 0x2000, 0x3000} {
		if _, ok := c.Load("img", pc, selfheal.TierFull); !ok {
			t.Fatalf("in-memory entry %#x lost to injection", pc)
		}
	}
	c.Close()

	c2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.CorruptSkipped != 1 || st.Loaded != 2 {
		t.Fatalf("stats after injected corruption = %+v, want 1 corrupt / 2 loaded", st)
	}
	if _, ok := c2.Load("img", 0x2000, selfheal.TierFull); ok {
		t.Fatal("injected-corrupt entry served after reopen")
	}
}

func TestDuplicateStoreIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := testBlock(0x1000, 3)
	if err := c.Store("img", 0x1000, selfheal.TierFull, first); err != nil {
		t.Fatal(err)
	}
	if err := c.Store("img", 0x1000, selfheal.TierFull, testBlock(0x1000, 9)); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Load("img", 0x1000, selfheal.TierFull)
	if !blocksEqual(got, first) {
		t.Fatal("duplicate store replaced the original")
	}
	if st := c.Stats(); st.Stores != 1 {
		t.Fatalf("Stores = %d, want 1", st.Stores)
	}
	c.Close()

	c2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if st := c2.Stats(); st.Loaded != 1 {
		t.Fatalf("journal has %d entries for one key, want 1", st.Loaded)
	}
}

func TestForImageView(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := c.ForImage("fp/risotto")
	v.StoreBlock(0x1000, selfheal.TierFull, testBlock(0x1000, 2))
	if _, ok := v.LoadBlock(0x1000, selfheal.TierFull); !ok {
		t.Fatal("view miss on stored block")
	}
	if _, ok := v.LoadBlock(0x2000, selfheal.TierFull); ok {
		t.Fatal("view hit on absent block")
	}
	// Another image's view must not see it.
	other := c.ForImage("fp/qemu")
	if _, ok := other.LoadBlock(0x1000, selfheal.TierFull); ok {
		t.Fatal("cross-image hit")
	}
	h, m := v.Counts()
	if h != 1 || m != 1 {
		t.Fatalf("view counts = (%d, %d), want (1, 1)", h, m)
	}
}

func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			img := fmt.Sprintf("img-%d", g%2)
			for i := 0; i < 50; i++ {
				pc := uint64(0x1000 + 4*(i%10))
				c.Store(img, pc, selfheal.TierFull, testBlock(pc, 2))
				c.Load(img, pc, selfheal.TierFull)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := c.Stats(); st.Entries != 20 {
		t.Fatalf("Entries = %d, want 20", st.Entries)
	}
}
