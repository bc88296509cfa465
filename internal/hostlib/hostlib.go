// Package hostlib is Risotto-Go's registry of native host shared-library
// functions (§6.2): real Go implementations standing in for the host's
// libm / OpenSSL / sqlite, each with a calibrated native cycle cost. The
// dynamic linker dispatches PLT calls here instead of translating the
// guest implementation; the cost model is what lets Figure 13/14's
// translated-vs-native comparison be made inside the simulator.
//
// Cost calibration: native costs are expressed in the same synthetic cycle
// unit as machine.CostTable. Digests cost a per-byte rate plus setup;
// short math kernels cost a flat amount. Guest-side implementations of the
// same functions (internal/workloads) execute instruction-by-instruction
// under the DBT, so the speedup ratios of Figures 13/14 emerge from real
// instruction counts on the guest side versus these constants on the host
// side.
package hostlib

import (
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
)

// Func is a native host function. mem is the guest/host shared memory
// (user-mode emulation maps them identically, §2.2); args follow the IDL
// signature. It returns the result value and the simulated native cost.
type Func func(mem Memory, args []uint64) (result uint64, cycles uint64)

// Memory is the guest memory a host function reaches: Read returns the n
// bytes at addr for reading, Write copies b to addr, and both refuse a
// range that leaves memory — guest-chosen (pointer, length) pairs may wrap
// past 2^64. *machine.Machine implements it; its Write clears the
// exclusive monitors a host function's store breaks, as a guest store's.
type Memory interface {
	Read(addr, n uint64) ([]byte, error)
	Write(addr uint64, b []byte) error
}

// Library maps function names to native implementations.
type Library struct {
	funcs map[string]Func
}

// New returns an empty library.
func New() *Library { return &Library{funcs: make(map[string]Func)} }

// Register adds or replaces a function.
func (l *Library) Register(name string, fn Func) { l.funcs[name] = fn }

// Lookup finds a function.
func (l *Library) Lookup(name string) (Func, bool) {
	fn, ok := l.funcs[name]
	return fn, ok
}

// Names returns the registered function count (for stats/tests).
func (l *Library) Names() int { return len(l.funcs) }

// --- Cost constants ----------------------------------------------------------

// Native costs (synthetic cycles). Math kernels are tens of cycles; digest
// rates reflect optimized native code (sha256 fastest — hardware crypto
// extensions on the paper's ThunderX2).
const (
	costSqrt    = 40
	costExpLog  = 100
	costTrig    = 110
	costArcTrig = 130

	// Digest rates order md5 ≫ sha1 > sha256: on the paper's testbed
	// SHA-1/SHA-256 use the Armv8 crypto extensions while MD5 does not,
	// which is why Figure 13's speedups order md5-1024 (1.4×) far below
	// sha256-8192 (23×).
	costDigestSetup   = 120
	costMD5PerByte    = 20
	costSHA1PerByte   = 9
	costSHA256PerByte = 6

	// RSA: native modular exponentiation; sign ≫ verify (e = 65537) and
	// 2048 ≫ 1024.
	costRSA1024Sign   = 45_000
	costRSA1024Verify = 1_500
	costRSA2048Sign   = 300_000
	costRSA2048Verify = 6_000

	costSqlitePerOp = 36
)

// Default returns the library used by the evaluation: libm, OpenSSL-like
// digests and RSA, and a sqlite-like KV engine.
func Default() *Library {
	l := New()

	mathFn := func(cost uint64, f func(float64) float64) Func {
		return func(mem Memory, args []uint64) (uint64, uint64) {
			x := math.Float64frombits(args[0])
			return math.Float64bits(f(x)), cost
		}
	}
	l.Register("sin", mathFn(costTrig, math.Sin))
	l.Register("cos", mathFn(costTrig, math.Cos))
	l.Register("tan", mathFn(costTrig, math.Tan))
	l.Register("asin", mathFn(costArcTrig, math.Asin))
	l.Register("acos", mathFn(costArcTrig, math.Acos))
	l.Register("atan", mathFn(costArcTrig, math.Atan))
	l.Register("exp", mathFn(costExpLog, math.Exp))
	l.Register("log", mathFn(costExpLog, math.Log))
	l.Register("sqrt", mathFn(costSqrt, math.Sqrt))

	digest := func(rate uint64, sum func([]byte) []byte) Func {
		return func(mem Memory, args []uint64) (uint64, uint64) {
			buf, err := mem.Read(args[0], args[1])
			if err != nil {
				return 0, costDigestSetup
			}
			d := sum(buf)
			return binary.LittleEndian.Uint64(d[:8]), costDigestSetup + rate*args[1]
		}
	}
	l.Register("md5", digest(costMD5PerByte, func(b []byte) []byte {
		s := md5.Sum(b)
		return s[:]
	}))
	l.Register("sha1", digest(costSHA1PerByte, func(b []byte) []byte {
		s := sha1.Sum(b)
		return s[:]
	}))
	l.Register("sha256", digest(costSHA256PerByte, func(b []byte) []byte {
		s := sha256.Sum256(b)
		return s[:]
	}))

	// RSA modelled as modular exponentiation over fixed moduli. Sign uses
	// the full-size private exponent; verify uses e = 65537.
	rsa := func(bits int, sign bool, cost uint64) Func {
		mod := rsaModulus(bits)
		exp := big.NewInt(65537)
		if sign {
			exp = new(big.Int).Sub(mod, big.NewInt(12345)) // private-exponent-sized
		}
		return func(mem Memory, args []uint64) (uint64, uint64) {
			base := new(big.Int).SetUint64(args[0] | 2)
			r := new(big.Int).Exp(base, exp, mod)
			return r.Uint64() & 0xFFFFFFFF, cost
		}
	}
	l.Register("rsa1024_sign", rsa(1024, true, costRSA1024Sign))
	l.Register("rsa1024_verify", rsa(1024, false, costRSA1024Verify))
	l.Register("rsa2048_sign", rsa(2048, true, costRSA2048Sign))
	l.Register("rsa2048_verify", rsa(2048, false, costRSA2048Verify))

	// sqlite-like engine: hashed key-value inserts+lookups over a table
	// region in guest memory (args: table ptr, op count, seed).
	l.Register("sqlite_exec", func(mem Memory, args []uint64) (uint64, uint64) {
		table, ops, seed := args[0], args[1], args[2]
		const buckets = 4096
		tab, err := mem.Read(table, buckets*8)
		if err != nil {
			return 0, costDigestSetup
		}
		var acc uint64
		var val [8]byte
		x := seed | 1
		for i := uint64(0); i < ops; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			slot := (x >> 33) % buckets * 8
			old := binary.LittleEndian.Uint64(tab[slot:])
			binary.LittleEndian.PutUint64(val[:], old+x)
			if mem.Write(table+slot, val[:]) != nil {
				return 0, costDigestSetup
			}
			acc ^= old
		}
		return acc, costSqlitePerOp * ops
	})

	return l
}

// rsaModulus returns a deterministic odd modulus of the given bit size.
func rsaModulus(bits int) *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	m.Sub(m, big.NewInt(1))
	// Make it composite-but-odd deterministic value (RSA semantics are not
	// under test; only cost/ordering are).
	m.Sub(m, big.NewInt(1<<20))
	m.SetBit(m, 0, 1)
	return m
}

// MustLookup returns the function or panics (test/bench convenience).
func (l *Library) MustLookup(name string) Func {
	fn, ok := l.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("hostlib: %q not registered", name))
	}
	return fn
}
