package main

import (
	"fmt"
	"math/rand"

	"repro/internal/portasm"
)

// coldBlocks is the size of the coldcode guest.
const coldBlocks = 8000

// coldProgram generates the coldcode guest: one straight-line program of
// blocks distinct translation blocks of loads, stores, ALU ops, MFENCE and
// CAS over a scratch array, each block entered once and left through a jump
// to the next, exiting with an accumulator checksum. It is the style of
// seededProgram in internal/core/tierup_test.go with the loop unrolled into
// fresh code, so that every block costs a translation and runs a handful of
// instructions. The same seed gives the same program.
func coldProgram(seed int64, blocks int) *portasm.Builder {
	const (
		base  = portasm.Reg(3) // scratch array
		acc   = portasm.Reg(5) // accumulator, the checksum
		tmp   = portasm.Reg(6)
		cell  = portasm.Reg(7) // CAS target address
		want  = portasm.Reg(8) // CAS expected value
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
		for j, n := 0, 3+rng.Intn(5); j < n; j++ {
			switch k := rng.Intn(16); {
			case k < 5:
				b.Ld(tmp, base, disp(), 8).AddR(acc, tmp)
			case k < 9:
				b.St(base, disp(), acc, 8)
			case k < 11:
				b.AddI(acc, int64(1+rng.Intn(999)))
			case k < 12:
				b.MulI(acc, int64(3+2*rng.Intn(8)))
			case k < 13:
				b.Mov(tmp, acc).ShrI(tmp, int64(1+rng.Intn(7))).XorR(acc, tmp)
			case k < 14:
				b.MFence()
			default:
				// CAS on a cell holding what was just loaded from it,
				// so it succeeds and stores the accumulator.
				b.Mov(cell, base).AddI(cell, disp()).Ld(want, cell, 0, 8).CASFlag(cell, want, acc)
			}
		}
		next := fmt.Sprintf("b%d", i)
		b.Jmp(next).Label(next)
	}
	b.AluI(portasm.And, acc, 0xFFFFFF).Exit(acc)
	return b
}
