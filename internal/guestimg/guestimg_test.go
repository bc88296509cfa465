package guestimg

import (
	"testing"

	"repro/internal/isa/x86"
	"repro/internal/machine"
)

func TestBuildAndLoad(t *testing.T) {
	b := NewBuilder(0x1000, 0x8000)
	blob := b.Data([]byte{1, 2, 3})
	zeros := b.Zeros(16)
	b.Asm.Label("main").MovRI(x86.RAX, 7).Ret()

	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != 0x1000 {
		t.Fatalf("entry = %#x", img.Entry)
	}
	if blob != 0x8000 {
		t.Fatalf("first data blob at %#x", blob)
	}
	if zeros <= blob || zeros%8 != 0 {
		t.Fatalf("zeros at %#x", zeros)
	}

	m := machine.New(1 << 16)
	if err := img.Load(m); err != nil {
		t.Fatal(err)
	}
	mem := m.Mem
	if mem[blob] != 1 || mem[blob+2] != 3 {
		t.Fatal("data not loaded")
	}
	// Text decodes back.
	inst, _, err := x86.Decode(mem[0x1000:])
	if err != nil || inst.Op != x86.MOVri || inst.Imm != 7 {
		t.Fatalf("text decode: %v %v", inst, err)
	}
	if img.MaxAddr() < zeros+16 {
		t.Fatalf("MaxAddr = %#x", img.MaxAddr())
	}
}

func TestImportsGeneratePLT(t *testing.T) {
	b := NewBuilder(0x1000, 0x8000)
	b.Import("sin")
	b.Import("cos")
	a := b.Asm
	a.Label("main").Call("sin@plt").Call("cos@plt").Ret()
	a.Label("sin").Ret()
	a.Label("cos").Ret()

	img, err := b.Build("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(img.DynSyms) != 2 {
		t.Fatalf("dynsyms: %+v", img.DynSyms)
	}
	for _, d := range img.DynSyms {
		if d.PLT == 0 || d.GuestImpl == 0 {
			t.Fatalf("incomplete dynsym %+v", d)
		}
		if d.PLT == d.GuestImpl {
			t.Fatal("PLT entry must differ from implementation")
		}
		// The PLT entry must be a JMP whose target is the guest impl.
		m := machine.New(1 << 16)
		if err := img.Load(m); err != nil {
			t.Fatal(err)
		}
		inst, n, err := x86.Decode(m.Mem[d.PLT:])
		if err != nil || inst.Op != x86.JMP {
			t.Fatalf("PLT entry not a JMP: %v %v", inst, err)
		}
		if got := d.PLT + uint64(n) + uint64(inst.Rel); got != d.GuestImpl {
			t.Fatalf("PLT jmp lands at %#x, impl at %#x", got, d.GuestImpl)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	b := NewBuilder(0x1000, 0x8000)
	b.Asm.Label("main").Ret()
	if _, err := b.Build("nope"); err == nil {
		t.Fatal("unknown entry must error")
	}

	b = NewBuilder(0x1000, 0x8000)
	b.Import("ghost")
	b.Asm.Label("main").Ret()
	if _, err := b.Build("main"); err == nil {
		t.Fatal("import without guest implementation must error")
	}
}

func TestLoadOutOfBounds(t *testing.T) {
	img := &Image{Segments: []Segment{{Addr: 1 << 20, Data: []byte{1}}}}
	if err := img.Load(machine.New(1024)); err == nil {
		t.Fatal("segment past memory must error")
	}
}
