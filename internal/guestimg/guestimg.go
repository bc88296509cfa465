// Package guestimg defines Risotto-Go's ELF-like guest binary image: code
// and data segments, a symbol table, and the dynamic-linking metadata the
// host linker consumes — imported dynamic symbols (.dynsym) and their PLT
// entries (§6.2 of the paper). A Builder assembles images from code and
// data; Load places an image into machine memory.
package guestimg

import (
	"fmt"
	"sort"

	"repro/internal/isa/x86"
)

// Segment is a contiguous byte range to map at Addr.
type Segment struct {
	Addr uint64
	Data []byte
}

// DynSym is one imported shared-library function: its name, the address of
// its PLT entry in the image, and the address of the guest fallback
// implementation the PLT jumps to when not host-linked.
type DynSym struct {
	Name string
	// PLT is the address of the function's PLT entry.
	PLT uint64
	// GuestImpl is the guest implementation's entry point (the "guest
	// shared library" function the PLT tail-calls when the host linker
	// is off).
	GuestImpl uint64
}

// Image is a loadable guest binary.
type Image struct {
	// Entry is the initial guest PC.
	Entry uint64
	// Segments to map.
	Segments []Segment
	// Symbols maps label names to absolute guest addresses.
	Symbols map[string]uint64
	// DynSyms lists imported shared-library functions with PLT entries.
	DynSyms []DynSym
}

// Writer is the memory an image loads into: (*machine.Machine).Write,
// which keeps what the load overwrites coherent.
type Writer interface {
	Write(addr uint64, b []byte) error
}

// Load writes every segment into memory through w.
func (img *Image) Load(w Writer) error {
	for _, s := range img.Segments {
		if err := w.Write(s.Addr, s.Data); err != nil {
			return fmt.Errorf("guestimg: segment [%#x,+%d): %v", s.Addr, len(s.Data), err)
		}
	}
	return nil
}

// MaxAddr returns the end of the highest segment, for placing stacks/heap.
func (img *Image) MaxAddr() uint64 {
	var max uint64
	for _, s := range img.Segments {
		if end := s.Addr + uint64(len(s.Data)); end > max {
			max = end
		}
	}
	return max
}

// Builder assembles an image from one text assembler plus data blobs.
// Imported functions are declared with Import: the builder synthesizes a
// PLT entry (a single JMP to the guest implementation) and records the
// dynamic symbol. Call sites use the "<name>@plt" label.
type Builder struct {
	// Asm is the program text; the builder owns label placement for PLT
	// entries, so callers append their code and data first.
	Asm      *x86.Assembler
	textBase uint64
	imports  []string // import order
	data     []Segment
	dataCur  uint64
}

// NewBuilder returns a builder whose text starts at textBase and whose
// data area starts at dataBase.
func NewBuilder(textBase, dataBase uint64) *Builder {
	return &Builder{
		Asm:      x86.NewAssembler(),
		textBase: textBase,
		dataCur:  dataBase,
	}
}

// Import declares a shared-library function. The guest implementation must
// be assembled under the label "<name>" (in this image); call sites should
// call "<name>@plt".
func (b *Builder) Import(name string) {
	b.imports = append(b.imports, name)
}

// Data places a blob in the data area and returns its guest address.
func (b *Builder) Data(blob []byte) uint64 {
	addr := b.dataCur
	b.data = append(b.data, Segment{Addr: addr, Data: append([]byte(nil), blob...)})
	b.dataCur += uint64(len(blob))
	// Keep 8-byte alignment for subsequent blobs.
	if rem := b.dataCur % 8; rem != 0 {
		b.dataCur += 8 - rem
	}
	return addr
}

// Zeros reserves n zeroed data bytes and returns their guest address.
func (b *Builder) Zeros(n int) uint64 {
	return b.Data(make([]byte, n))
}

// Build emits PLT entries, assembles the text, and produces the image with
// entry point at the given label.
func (b *Builder) Build(entryLabel string) (*Image, error) {
	// PLT entries: one JMP per import, placed after user code.
	sort.Strings(b.imports)
	for _, name := range b.imports {
		b.Asm.Label(name + "@plt")
		b.Asm.Jmp(name)
	}
	code, syms, err := b.Asm.Assemble(b.textBase)
	if err != nil {
		return nil, fmt.Errorf("guestimg: %w", err)
	}
	entry, ok := syms[entryLabel]
	if !ok {
		return nil, fmt.Errorf("guestimg: entry label %q undefined", entryLabel)
	}
	img := &Image{
		Entry:    entry,
		Segments: append([]Segment{{Addr: b.textBase, Data: code}}, b.data...),
		Symbols:  syms,
	}
	for _, name := range b.imports {
		impl, ok := syms[name]
		if !ok {
			return nil, fmt.Errorf("guestimg: import %q has no guest implementation label", name)
		}
		img.DynSyms = append(img.DynSyms, DynSym{
			Name:      name,
			PLT:       syms[name+"@plt"],
			GuestImpl: impl,
		})
	}
	return img, nil
}
