package litmus

import (
	"strings"

	"repro/internal/memmodel"
)

// This file collects the named litmus programs used throughout the Risotto
// paper, at each of the three levels (x86 guest, TCG IR, Arm host), plus
// the classic coherence/ordering family used to widen mapping verification.

// ---- x86-level programs (source programs of §2.1, §3.2, §3.3) ----------

// MP is the message-passing test of §2.1: the weak outcome a=1,b=0 is
// forbidden in x86 and allowed in (fenceless) Arm.
func MP() *Program {
	return &Program{
		Name: "MP",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "Y"}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// SB is store buffering: a=b=0 is allowed even in x86 (the one TSO
// relaxation), and must remain allowed after translation.
func SB() *Program {
	return &Program{
		Name: "SB",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Load{Dst: "a", Loc: "Y"}},
			{Store{Loc: "Y", Val: 1}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// SBFenced is SB with MFENCEs: a=b=0 becomes forbidden in x86.
func SBFenced() *Program {
	return &Program{
		Name: "SB+mfences",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Fence{K: memmodel.FenceMFENCE}, Load{Dst: "a", Loc: "Y"}},
			{Store{Loc: "Y", Val: 1}, Fence{K: memmodel.FenceMFENCE}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// LB is load buffering: a=b=1 is forbidden in x86 (loads are not reordered
// with later stores).
func LB() *Program {
	return &Program{
		Name: "LB",
		Threads: [][]Op{
			{Load{Dst: "a", Loc: "X"}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "b", Loc: "Y"}, Store{Loc: "X", Val: 1}},
		},
	}
}

// S: W-W on one side against R-then-same-loc-W; a=1 ∧ final X=2 forbidden
// in x86.
func S() *Program {
	return &Program{
		Name: "S",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 2}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "Y"}, Store{Loc: "X", Val: 1}},
		},
	}
}

// R: two writers racing with a read. The weak outcome X=1∧Y=2∧a=0 is
// allowed in plain x86 (the W→R pair in T1 is the TSO relaxation).
func R() *Program {
	return &Program{
		Name: "R",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
			{Store{Loc: "Y", Val: 2}, Load{Dst: "a", Loc: "X"}},
		},
	}
}

// RFenced is R with an MFENCE in the second thread, which forbids the weak
// outcome in x86.
func RFenced() *Program {
	return &Program{
		Name: "R+mfence",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
			{Store{Loc: "Y", Val: 2}, Fence{K: memmodel.FenceMFENCE}, Load{Dst: "a", Loc: "X"}},
		},
	}
}

// TwoPlusTwoW is 2+2W: final X=1 ∧ Y=1 forbidden in x86.
func TwoPlusTwoW() *Program {
	return &Program{
		Name: "2+2W",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 2}},
			{Store{Loc: "Y", Val: 1}, Store{Loc: "X", Val: 2}},
		},
	}
}

// CoRR checks read-read coherence: one thread writes X=1, the other reads
// X twice; a=1,b=0 forbidden everywhere (SC per location).
func CoRR() *Program {
	return &Program{
		Name: "CoRR",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}},
			{Load{Dst: "a", Loc: "X"}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// CoWW checks write-write coherence within a thread.
func CoWW() *Program {
	return &Program{
		Name: "CoWW",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "X", Val: 2}},
			{Load{Dst: "a", Loc: "X"}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// CoWR checks a thread reads its own most recent write.
func CoWR() *Program {
	return &Program{
		Name: "CoWR",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Load{Dst: "a", Loc: "X"}},
			{Store{Loc: "X", Val: 2}},
		},
	}
}

// MPAddr is message passing with an address dependency in the reader: the
// second load's location is selected by the first load's value. On Arm the
// dependency orders the loads (dob), so the weak outcome is forbidden even
// without reader-side fences; the TCG IR model ignores dependencies
// entirely (§5.3), so at the IR level only fences can restore the order.
func MPAddr() *Program {
	return &Program{
		Name: "MP+addr",
		Threads: [][]Op{
			{
				Store{Loc: "X0", Val: 1},
				Fence{K: memmodel.FenceDMBST},
				Store{Loc: "Y", Val: 1},
			},
			{
				Load{Dst: "a", Loc: "Y"},
				// Both index selections hit X0 — a *false* address
				// dependency, the classic eor-based idiom: the value
				// cannot change the address, but the syntactic dependency
				// still orders the access on Arm.
				LoadIdx{Dst: "b", Idx: "a", Loc0: "X0", Loc1: "X0"},
			},
		},
	}
}

// MPDataRfiAddr is message passing whose reader forwards the flag through
// a private location: the data dependency into the store of Z, the thread
// reading its own store back (rfi), and the address dependency into the
// load of X chain up to order the two outer loads — the (addr ∪ data);rfi
// term of Armed-Cats' dob and of IMM's depord, the one dependency term
// whose value varies with rf. The writer carries both dmb ishst and Fww,
// so the weak outcome is forbidden under either model (each reads its own
// fence and ignores the other) and allowed by the TCG IR model.
func MPDataRfiAddr() *Program {
	return &Program{
		Name: "MP+data-rfi-addr",
		Threads: [][]Op{
			{
				Store{Loc: "X", Val: 1},
				Fence{K: memmodel.FenceDMBST},
				Fence{K: memmodel.FenceFww},
				Store{Loc: "Y", Val: 1},
			},
			{
				Load{Dst: "a", Loc: "Y"},
				StoreReg{Loc: "Z", Src: "a"},
				Load{Dst: "b", Loc: "Z"},
				LoadIdx{Dst: "c", Idx: "b", Loc0: "X", Loc1: "X"},
			},
		},
	}
}

// LBAddr is load buffering with (false) address dependencies into the
// stores on both sides — forbidden on Arm via dob's addr rule, yet allowed
// by the TCG IR model, which orders nothing through dependencies.
func LBAddr() *Program {
	return &Program{
		Name: "LB+addrs",
		Threads: [][]Op{
			{
				Load{Dst: "a", Loc: "X"},
				StoreIdx{Idx: "a", Loc0: "Y", Loc1: "Y", Val: 1},
			},
			{
				Load{Dst: "b", Loc: "Y"},
				StoreIdx{Idx: "b", Loc0: "X", Loc1: "X", Val: 1},
			},
		},
	}
}

// IRIW is independent-reads-independent-writes: two writers, two readers
// observing them in opposite orders. Forbidden in x86; on Arm the plain
// version is allowed (reader-side load reordering) while DMB-fenced
// readers restore multi-copy-atomic agreement.
func IRIW() *Program {
	return &Program{
		Name: "IRIW",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}},
			{Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "X"}, Load{Dst: "b", Loc: "Y"}},
			{Load{Dst: "c", Loc: "Y"}, Load{Dst: "d", Loc: "X"}},
		},
	}
}

// IRIWFenced is IRIW with full fences between the readers' loads.
func IRIWFenced() *Program {
	return &Program{
		Name: "IRIW+dmbs",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}},
			{Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "X"}, Fence{K: memmodel.FenceDMBFF}, Load{Dst: "b", Loc: "Y"}},
			{Load{Dst: "c", Loc: "Y"}, Fence{K: memmodel.FenceDMBFF}, Load{Dst: "d", Loc: "X"}},
		},
	}
}

// WRC is write-to-read causality: x86 forbids a=1 ∧ b=1 ∧ c=0.
func WRC() *Program {
	return &Program{
		Name: "WRC",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}},
			{Load{Dst: "a", Loc: "X"}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "b", Loc: "Y"}, Load{Dst: "c", Loc: "X"}},
		},
	}
}

// ISA2 chains message passing across three threads: x86 forbids
// a=1 ∧ b=1 ∧ c=0.
func ISA2() *Program {
	return &Program{
		Name: "ISA2",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "Y"}, Store{Loc: "Z", Val: 1}},
			{Load{Dst: "b", Loc: "Z"}, Load{Dst: "c", Loc: "X"}},
		},
	}
}

// RWC is read-to-write causality: the weak outcome a=1 ∧ b=0 ∧ c=0 is
// allowed in plain x86 (T2's store-load pair is the TSO relaxation) and
// forbidden once T2 carries an MFENCE.
func RWC() *Program {
	return &Program{
		Name: "RWC",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}},
			{Load{Dst: "a", Loc: "X"}, Load{Dst: "b", Loc: "Y"}},
			{Store{Loc: "Y", Val: 1}, Load{Dst: "c", Loc: "X"}},
		},
	}
}

// RWCFenced is RWC with an MFENCE in the writing-then-reading thread.
func RWCFenced() *Program {
	return &Program{
		Name: "RWC+mfence",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}},
			{Load{Dst: "a", Loc: "X"}, Load{Dst: "b", Loc: "Y"}},
			{Store{Loc: "Y", Val: 1}, Fence{K: memmodel.FenceMFENCE}, Load{Dst: "c", Loc: "X"}},
		},
	}
}

// MPQ is §3.2's first error witness: in x86, a=1 implies the RMW sees X=1
// and updates it to 2, so a=1 ∧ X=1 is forbidden. QEMU's Arm translation
// with RMW1^AL admits it.
func MPQ() *Program {
	return &Program{
		Name: "MPQ",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Store{Loc: "Y", Val: 1}},
			{
				Load{Dst: "a", Loc: "Y"},
				If{Reg: "a", Eq: true, Val: 1, Body: []Op{
					CAS{Loc: "X", Expect: 1, New: 2, Attr: Attr{Class: memmodel.RMWAmo}},
				}},
			},
		},
	}
}

// SBQ is §3.2's second error witness: Z=U=1 ∧ a=b=0 is forbidden in x86
// (successful RMWs act as full fences) but allowed by QEMU's RMW2^AL
// translation.
func SBQ() *Program {
	return &Program{
		Name: "SBQ",
		Threads: [][]Op{
			{
				Store{Loc: "X", Val: 1},
				CAS{Loc: "Z", Expect: 0, New: 1, Attr: Attr{Class: memmodel.RMWAmo}},
				Load{Dst: "a", Loc: "Y"},
			},
			{
				Store{Loc: "Y", Val: 1},
				CAS{Loc: "U", Expect: 0, New: 1, Attr: Attr{Class: memmodel.RMWAmo}},
				Load{Dst: "b", Loc: "X"},
			},
		},
	}
}

// SBAL is §3.3's witness against the original Armed-Cats casal rule:
// X=Y=1 ∧ a=b=0 is forbidden in x86.
func SBAL() *Program {
	return &Program{
		Name: "SBAL",
		Threads: [][]Op{
			{
				CAS{Loc: "X", Expect: 0, New: 1, Attr: Attr{Class: memmodel.RMWAmo}},
				Load{Dst: "a", Loc: "Y"},
			},
			{
				CAS{Loc: "Y", Expect: 0, New: 1, Attr: Attr{Class: memmodel.RMWAmo}},
				Load{Dst: "b", Loc: "X"},
			},
		},
	}
}

// Fig9a is the left example of Figure 9 (IR-level): X=2; RMW(Y,0,1) vs
// Y=2; RMW(X,0,1); the outcome where both RMWs succeed (final X=Y=1) is
// forbidden in the IR model.
func Fig9a() *Program {
	return &Program{
		Name: "Fig9a",
		Threads: [][]Op{
			{
				Store{Loc: "X", Val: 2},
				CAS{Loc: "Y", Expect: 0, New: 1, Attr: Attr{SC: true, Class: memmodel.RMWAmo}},
			},
			{
				Store{Loc: "Y", Val: 2},
				CAS{Loc: "X", Expect: 0, New: 1, Attr: Attr{SC: true, Class: memmodel.RMWAmo}},
			},
		},
	}
}

// Fig9b is the right example of Figure 9 (IR-level): RMW(X,0,1); a=Y vs
// RMW(Y,0,1); b=X; a=b=0 is forbidden in the IR model.
func Fig9b() *Program {
	return &Program{
		Name: "Fig9b",
		Threads: [][]Op{
			{
				CAS{Loc: "X", Expect: 0, New: 1, Attr: Attr{SC: true, Class: memmodel.RMWAmo}},
				Load{Dst: "a", Loc: "Y"},
			},
			{
				CAS{Loc: "Y", Expect: 0, New: 1, Attr: Attr{SC: true, Class: memmodel.RMWAmo}},
				Load{Dst: "b", Loc: "X"},
			},
		},
	}
}

// ---- TCG IR-level programs (§5.4, Figure 8; §3.2 FMR) ------------------

// LBIR is LB-IR of Figure 8: trailing Frw fences after loads forbid
// a=b=1 in the IR model.
func LBIR() *Program {
	return &Program{
		Name: "LB-IR",
		Threads: [][]Op{
			{Load{Dst: "a", Loc: "X"}, Fence{K: memmodel.FenceFrw}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "b", Loc: "Y"}, Fence{K: memmodel.FenceFrw}, Store{Loc: "X", Val: 1}},
		},
	}
}

// MPIR is MP-IR of Figure 8: Fww before the second store and Frr after the
// first load forbid a=1,b=0 in the IR model.
func MPIR() *Program {
	return &Program{
		Name: "MP-IR",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Fence{K: memmodel.FenceFww}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "Y"}, Fence{K: memmodel.FenceFrr}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// FMRSource is the source program of §3.2's FMR example: the Fmr fence and
// the Frw fences establish orderings that forbid a=2 ∧ c=3.
func FMRSource() *Program {
	return &Program{
		Name: "FMR-src",
		Threads: [][]Op{
			{
				Store{Loc: "X", Val: 3},
				Fence{K: memmodel.FenceFmr},
				Store{Loc: "Y", Val: 2},
				Load{Dst: "a", Loc: "Y"},
				Fence{K: memmodel.FenceFrw},
				Store{Loc: "Z", Val: 2},
			},
			{
				Load{Dst: "z", Loc: "Z"},
				If{Reg: "z", Eq: true, Val: 2, Body: []Op{
					Fence{K: memmodel.FenceFrw},
					Store{Loc: "X", Val: 4},
					Load{Dst: "c", Loc: "X"},
				}},
			},
		},
	}
}

// FMRTarget is FMRSource after the RAW transformation (a = 2 replaces the
// load of Y): the transformation is incorrect in the presence of Fmr — the
// target admits a=2 ∧ c=3, which the source forbids.
func FMRTarget() *Program {
	return &Program{
		Name: "FMR-tgt",
		Threads: [][]Op{
			{
				Store{Loc: "X", Val: 3},
				Fence{K: memmodel.FenceFmr},
				Store{Loc: "Y", Val: 2},
				MovImm{Dst: "a", Val: 2},
				Fence{K: memmodel.FenceFrw},
				Store{Loc: "Z", Val: 2},
			},
			{
				Load{Dst: "z", Loc: "Z"},
				If{Reg: "z", Eq: true, Val: 2, Body: []Op{
					Fence{K: memmodel.FenceFrw},
					Store{Loc: "X", Val: 4},
					Load{Dst: "c", Loc: "X"},
				}},
			},
		},
	}
}

// ---- Arm-level programs (§3.3, Figure 3) --------------------------------

// SBALArm is Figure 3's intended Armed-Cats mapping of SBAL: casal
// (acquire-release amo) RMWs followed by LDAPR (Q) loads. Under the
// original model the weak outcome a=b=0 ∧ X=Y=1 is allowed; under the
// corrected model it is forbidden.
func SBALArm() *Program {
	amoAL := Attr{Acq: true, Rel: true, Class: memmodel.RMWAmo}
	q := Attr{AcqPC: true}
	return &Program{
		Name: "SBAL-arm",
		Threads: [][]Op{
			{
				CAS{Loc: "X", Expect: 0, New: 1, Attr: amoAL},
				Load{Dst: "a", Loc: "Y", Attr: q},
			},
			{
				CAS{Loc: "Y", Expect: 0, New: 1, Attr: amoAL},
				Load{Dst: "b", Loc: "X", Attr: q},
			},
		},
	}
}

// MPArm is plain MP at the Arm level (no fences): the weak outcome is
// allowed, demonstrating Arm's relative weakness.
func MPArm() *Program {
	p := MP()
	p.Name = "MP-arm"
	return p
}

// MPArmDMB is MP with DMBFF fences: the weak outcome is forbidden.
func MPArmDMB() *Program {
	return &Program{
		Name: "MP-arm+dmbs",
		Threads: [][]Op{
			{Store{Loc: "X", Val: 1}, Fence{K: memmodel.FenceDMBFF}, Store{Loc: "Y", Val: 1}},
			{Load{Dst: "a", Loc: "Y"}, Fence{K: memmodel.FenceDMBFF}, Load{Dst: "b", Loc: "X"}},
		},
	}
}

// X86Corpus returns the x86-level programs used for mapping verification.
func X86Corpus() []*Program {
	return []*Program{
		MP(), SB(), SBFenced(), LB(), S(), R(), RFenced(), TwoPlusTwoW(),
		CoRR(), CoWW(), CoWR(), MPQ(), SBQ(), SBAL(),
		IRIW(), WRC(), ISA2(), RWC(), RWCFenced(),
	}
}

// Named returns the named tests the operational tools accept by name
// (litmusctl explore and outcomes): the x86 corpus and the Arm-level shapes
// the machine can run, in the order explore reports them.
func Named() []*Program {
	return []*Program{
		MP(), SB(), SBFenced(), LB(), S(), R(), RFenced(), TwoPlusTwoW(), CoRR(),
		CoWW(), CoWR(), MPAddr(), LBAddr(), IRIW(), IRIWFenced(), WRC(), ISA2(),
		RWC(), RWCFenced(), MPQ(), SBQ(), SBAL(), SBALArm(), MPArm(), MPArmDMB(),
	}
}

// Lookup returns the Named test called name, compared case-insensitively.
func Lookup(name string) (*Program, bool) {
	for _, p := range Named() {
		if strings.EqualFold(p.Name, name) {
			return p, true
		}
	}
	return nil, false
}
