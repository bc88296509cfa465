package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/frontend"
	"repro/internal/guestimg"
	"repro/internal/portasm"
	"repro/internal/tcg"
	"repro/internal/workloads"
)

// straightLineGuest generates a guest of blocks distinct straight-line
// translation blocks — loads, stores, ALU ops, MFENCE, CAS and XADD over a
// scratch array, each block left through a jump to the next — the shape of
// a cold-code workload, where every block costs one translation. The same
// seed gives the same program.
func straightLineGuest(seed int64, blocks int) *portasm.Builder {
	const (
		base  = portasm.Reg(3)
		acc   = portasm.Reg(5)
		tmp   = portasm.Reg(6)
		cell  = portasm.Reg(7)
		want  = portasm.Reg(8)
		words = 64
	)
	rng := rand.New(rand.NewSource(seed))
	b := portasm.NewBuilder()
	data := make([]byte, words*8)
	rng.Read(data)
	arr := b.Data(data)
	disp := func() int64 { return int64(rng.Intn(words)) * 8 }
	b.Label("main").MovI(base, int64(arr)).MovI(acc, int64(rng.Intn(1<<20)))
	for i := 0; i < blocks; i++ {
		for j, n := 0, 2+rng.Intn(7); j < n; j++ {
			switch k := rng.Intn(18); {
			case k < 5:
				b.Ld(tmp, base, disp(), 8).AddR(acc, tmp)
			case k < 9:
				b.St(base, disp(), acc, uint8(1)<<rng.Intn(4))
			case k < 11:
				b.AddI(acc, int64(1+rng.Intn(999)))
			case k < 12:
				b.MulI(acc, int64(rng.Intn(4)))
			case k < 13:
				b.Mov(tmp, acc).ShrI(tmp, int64(1+rng.Intn(7))).XorR(acc, tmp)
			case k < 14:
				b.MFence()
			case k < 15:
				b.Mov(cell, base).AddI(cell, disp()).XAdd(cell, acc)
			case k < 16:
				b.Ld(tmp, base, disp(), 8).St(base, disp(), tmp, 8).Ld(tmp, base, disp(), 8)
			default:
				b.Mov(cell, base).AddI(cell, disp()).Ld(want, cell, 0, 8).CASFlag(cell, want, acc)
			}
		}
		next := fmt.Sprintf("b%d", i)
		b.Jmp(next).Label(next)
	}
	b.AluI(portasm.And, acc, 0xFFFFFF).Exit(acc)
	return b
}

// translationGuest is one image the translation tests run every block of.
type translationGuest struct {
	name string
	img  *guestimg.Image
}

// translationGuests returns the 17 registered kernels (2 threads, scale 1)
// and a seeded straight-line guest of 300 blocks.
func translationGuests(t testing.TB) []translationGuest {
	t.Helper()
	var out []translationGuest
	add := func(name string, pb *portasm.Builder, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		img, err := pb.BuildGuest("main")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, translationGuest{name, img})
	}
	for _, k := range workloads.Registry() {
		pb, err := k.Build(2, 1)
		add(k.Name, pb, err)
	}
	add("straightline", straightLineGuest(1, 300), nil)
	return out
}

// guestBlocks returns, in ascending order, the entry PC of every block a
// static crawl of rt's image reaches from its entry and its symbols: each
// block's constant exit targets and its fall-through end (a call's return
// site) are crawled in turn. PCs the frontend refuses are left out.
func guestBlocks(t testing.TB, rt *Runtime) []uint64 {
	t.Helper()
	work := []uint64{rt.img.Entry}
	for _, pc := range rt.img.Symbols {
		work = append(work, pc)
	}
	// The crawl's order only decides which of two PCs is seen first, and
	// the result is sorted: the map's order cannot show.
	seen := make(map[uint64]bool)
	var pcs []uint64
	for len(work) > 0 {
		pc := work[0]
		work = work[1:]
		if seen[pc] || !rt.inImage(pc) {
			continue
		}
		seen[pc] = true
		blk, err := frontend.Translate(rt.M.Mem, pc, rt.feCfg)
		if err != nil {
			continue
		}
		pcs = append(pcs, pc)
		work = append(work, blk.ExitTargets()...)
		work = append(work, blk.GuestEnd)
	}
	slices.Sort(pcs)
	return pcs
}

// dumpBlock writes every field of b.
func dumpBlock(w io.Writer, b *tcg.Block) {
	fmt.Fprintf(w, "block %#x %#x %d temps=%d labels=%d\n", b.GuestPC, b.GuestEnd, b.GuestBytes(), b.NumTemps, b.NumLabels)
	for _, in := range b.Insts {
		fmt.Fprintf(w, "%+v\n", in)
	}
}

// dumpCode generates b's host code under both atomic lowerings and writes
// it with its stats, or the error.
func dumpCode(w io.Writer, b *tcg.Block, cfg backend.Config) {
	for _, cas := range []backend.CASLowering{backend.CASCasal, backend.CASExclusiveFenced} {
		cfg.CAS = cas
		code, st, err := backend.Generate(b, 0, cfg)
		fmt.Fprintf(w, "code %d %x %+v %v\n", cas, code, st, err)
	}
}

// translationDigest is one line per optimization level of variant v over
// g: how many blocks and superblocks went through frontend, optimizer and
// backend, and a SHA-256 of every optimized block and its host code.
func translationDigest(t testing.TB, g translationGuest, v Variant) string {
	t.Helper()
	rt, err := newRuntime(Config{Variant: v}, g.img)
	if err != nil {
		t.Fatal(err)
	}
	pcs := guestBlocks(t, rt)
	var out strings.Builder
	for level := 0; level <= 2; level++ {
		opt := rt.optCfg.Degrade(level)
		h := sha256.New()
		// Each block on its own, and the frontend IR kept for the traces.
		fe := make(map[uint64]*tcg.Block, len(pcs))
		for _, pc := range pcs {
			blk, err := frontend.Translate(rt.M.Mem, pc, rt.feCfg)
			if err != nil {
				t.Fatalf("%s %v %#x: %v", g.name, v, pc, err)
			}
			fe[pc] = blk.Clone()
			tcg.Optimize(blk, opt)
			dumpBlock(h, blk)
			dumpCode(h, blk, rt.beCfg)
		}
		// Superblocks: from every block, the trace that follows first
		// exit targets for up to three blocks, as tier-up stitches them.
		supers := 0
		for _, pc := range pcs {
			trace := []*tcg.Block{fe[pc]}
			for len(trace) < 3 {
				tg := trace[len(trace)-1].ExitTargets()
				if len(tg) == 0 || fe[tg[0]] == nil {
					break
				}
				trace = append(trace, fe[tg[0]])
			}
			if len(trace) < 2 {
				continue
			}
			sb, err := tcg.Concat(trace)
			if err != nil {
				t.Fatalf("%s %v %#x: %v", g.name, v, pc, err)
			}
			tcg.Optimize(sb, opt)
			fmt.Fprintf(h, "super %d cross=%d\n", len(trace), tcg.CrossBlockFences(trace, sb, opt))
			dumpBlock(h, sb)
			dumpCode(h, sb, rt.beCfg)
			supers++
		}
		fmt.Fprintf(&out, "%s %v level=%d blocks=%d supers=%d sha256=%x\n", g.name, v, level, len(pcs), supers, h.Sum(nil))
	}
	return out.String()
}

// TestTranslationGolden pins what the translation pipeline produces: every
// block of every registered kernel and of a seeded straight-line guest,
// and the superblocks tier-up would stitch from them, through frontend,
// optimizer (full, without fence merging, none) and backend (casal and
// exclusive-loop lowering) under every variant, as one SHA-256 per guest,
// variant and level. A change to how translation is done that is not
// meant to change what it produces must leave testdata/translate.golden
// byte-identical; regenerate it only for a deliberate change with go test
// ./internal/core -run TranslationGolden -update.
func TestTranslationGolden(t *testing.T) {
	var out strings.Builder
	for _, g := range translationGuests(t) {
		for _, v := range allVariants {
			out.WriteString(translationDigest(t, g, v))
		}
	}
	checkGolden(t, "translate.golden", out.String())
}

// translated is one block's pipeline output, deep-copied.
type translated struct {
	insts []tcg.Inst
	code  []byte
}

// translateBlock runs pc through frontend, optimizer and backend with rt's
// configuration and returns the block and its code as the pipeline
// handed them over, without copying.
func translateBlock(t testing.TB, rt *Runtime, pc uint64) (*tcg.Block, []byte) {
	blk, err := frontend.Translate(rt.M.Mem, pc, rt.feCfg)
	if err != nil {
		t.Fatalf("%#x: %v", pc, err)
	}
	tcg.Optimize(blk, rt.optCfg)
	code, _, err := backend.Generate(blk, 0, rt.beCfg)
	if err != nil {
		t.Fatalf("%#x: %v", pc, err)
	}
	return blk, code
}

// TestTranslationDoesNotAlias: the block and the code the pipeline returns
// are the caller's. The first block of the straight-line guest, kept
// without a copy, must be unchanged after a hundred and more further
// blocks have gone through the same pipeline.
func TestTranslationDoesNotAlias(t *testing.T) {
	gs := translationGuests(t)
	g := gs[len(gs)-1]
	rt, err := newRuntime(Config{Variant: VariantRisotto}, g.img)
	if err != nil {
		t.Fatal(err)
	}
	pcs := guestBlocks(t, rt)
	if len(pcs) < 101 {
		t.Fatalf("%d blocks, want more than 100", len(pcs))
	}
	first, firstCode := translateBlock(t, rt, pcs[0])
	want := translated{slices.Clone(first.Insts), bytes.Clone(firstCode)}
	for _, pc := range pcs[1:] {
		translateBlock(t, rt, pc)
	}
	if !slices.Equal(first.Insts, want.insts) {
		t.Errorf("block %#x's IR changed after %d more translations:\n%s", pcs[0], len(pcs)-1, first)
	}
	if !bytes.Equal(firstCode, want.code) {
		t.Errorf("block %#x's code changed after %d more translations", pcs[0], len(pcs)-1)
	}
}

// TestTranslationConcurrent: two goroutines translating the same blocks at
// once (risottod serves two clients so) each get what a lone translation
// gets.
func TestTranslationConcurrent(t *testing.T) {
	gs := translationGuests(t)
	g := gs[len(gs)-1]
	rt, err := newRuntime(Config{Variant: VariantRisotto}, g.img)
	if err != nil {
		t.Fatal(err)
	}
	pcs := guestBlocks(t, rt)
	want := make([]translated, len(pcs))
	for i, pc := range pcs {
		blk, code := translateBlock(t, rt, pc)
		want[i] = translated{blk.Insts, code}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, pc := range pcs {
				blk, err := frontend.Translate(rt.M.Mem, pc, rt.feCfg)
				if err != nil {
					errs <- err.Error()
					return
				}
				tcg.Optimize(blk, rt.optCfg)
				code, _, err := backend.Generate(blk, 0, rt.beCfg)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !slices.Equal(blk.Insts, want[i].insts) || !bytes.Equal(code, want[i].code) {
					errs <- fmt.Sprintf("block %#x differs from its serial translation", pc)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
