package hostlib

import (
	"crypto/md5"
	"encoding/binary"
	"math"
	"testing"
)

func TestRegisterLookup(t *testing.T) {
	l := New()
	if _, ok := l.Lookup("f"); ok {
		t.Fatal("empty library should miss")
	}
	l.Register("f", func(mem []byte, args []uint64) (uint64, uint64) { return 42, 1 })
	fn, ok := l.Lookup("f")
	if !ok {
		t.Fatal("registered function missing")
	}
	if v, c := fn(nil, nil); v != 42 || c != 1 {
		t.Fatalf("fn = %d, %d", v, c)
	}
	if l.Names() != 1 {
		t.Fatalf("Names = %d", l.Names())
	}
}

func TestDefaultMath(t *testing.T) {
	l := Default()
	sin := l.MustLookup("sin")
	in := math.Float64bits(0.5)
	out, cost := sin(nil, []uint64{in})
	if got := math.Float64frombits(out); math.Abs(got-math.Sin(0.5)) > 1e-12 {
		t.Fatalf("sin(0.5) = %v", got)
	}
	if cost == 0 {
		t.Fatal("math functions must cost cycles")
	}
	sqrt := l.MustLookup("sqrt")
	out, sqrtCost := sqrt(nil, []uint64{math.Float64bits(2)})
	if got := math.Float64frombits(out); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Fatalf("sqrt(2) = %v", got)
	}
	if sqrtCost >= cost {
		t.Fatal("sqrt should be cheaper than sin")
	}
}

func TestDefaultDigests(t *testing.T) {
	l := Default()
	mem := make([]byte, 4096)
	for i := range mem {
		mem[i] = byte(i)
	}
	fn := l.MustLookup("md5")
	got, cost1k := fn(mem, []uint64{0, 1024})
	want := md5.Sum(mem[:1024])
	if got != binary.LittleEndian.Uint64(want[:8]) {
		t.Fatal("md5 result mismatch against crypto/md5")
	}
	_, cost2k := fn(mem, []uint64{0, 2048})
	if cost2k <= cost1k {
		t.Fatal("digest cost must scale with length")
	}
	// Rates order: sha256 cheapest per byte (crypto extensions), md5
	// most expensive.
	sha := l.MustLookup("sha256")
	_, shaCost := sha(mem, []uint64{0, 2048})
	if shaCost >= cost2k {
		t.Fatal("sha256 should be cheaper than md5 natively")
	}
	// Out-of-bounds buffer is refused gracefully.
	if _, c := fn(mem, []uint64{uint64(len(mem)) - 4, 1024}); c == 0 {
		t.Fatal("oob digest should still cost setup")
	}
}

func TestDefaultRSAOrdering(t *testing.T) {
	l := Default()
	cost := func(name string) uint64 {
		_, c := l.MustLookup(name)(nil, []uint64{7})
		return c
	}
	if !(cost("rsa1024_verify") < cost("rsa1024_sign")) {
		t.Fatal("verify must be cheaper than sign")
	}
	if !(cost("rsa1024_sign") < cost("rsa2048_sign")) {
		t.Fatal("1024 must be cheaper than 2048")
	}
	// Deterministic results.
	a, _ := l.MustLookup("rsa1024_sign")(nil, []uint64{7})
	b, _ := l.MustLookup("rsa1024_sign")(nil, []uint64{7})
	if a != b {
		t.Fatal("rsa must be deterministic")
	}
}

func TestSqliteExec(t *testing.T) {
	l := Default()
	fn := l.MustLookup("sqlite_exec")
	mem := make([]byte, 1<<20)
	_, cost := fn(mem, []uint64{0x1000, 100, 42})
	if cost == 0 {
		t.Fatal("sqlite must cost cycles")
	}
	// Table was mutated.
	sum := uint64(0)
	for i := 0; i < 4096; i++ {
		sum += binary.LittleEndian.Uint64(mem[0x1000+i*8:])
	}
	if sum == 0 {
		t.Fatal("sqlite_exec should have written buckets")
	}
}

// TestOutOfRangeBuffers feeds the memory-reading functions guest-chosen
// (pointer, length) pairs that leave memory, including ones whose sum wraps
// past 2^64: each must refuse with (0, setup cost), never panic.
func TestOutOfRangeBuffers(t *testing.T) {
	l := Default()
	mem := make([]byte, 64<<10)
	size := uint64(len(mem))
	const tableBytes = 4096 * 8
	cases := []struct {
		fn   string
		args []uint64
	}{
		{"md5", []uint64{size - 4, 1024}},
		{"md5", []uint64{1<<64 - 8, 16}},
		{"sha1", []uint64{16, 1<<64 - 8}},
		{"sha256", []uint64{1<<64 - 1, 1<<64 - 1}},
		{"sha256", []uint64{size + 1, 0}},
		{"sqlite_exec", []uint64{size - tableBytes + 8, 10, 1}},
		{"sqlite_exec", []uint64{1<<64 - tableBytes, 10, 1}},
		{"sqlite_exec", []uint64{1<<64 - 8, 10, 1}},
	}
	for _, c := range cases {
		got, cost := l.MustLookup(c.fn)(mem, c.args)
		if got != 0 || cost != costDigestSetup {
			t.Errorf("%s%#x = (%d, %d), want (0, %d)", c.fn, c.args, got, cost, costDigestSetup)
		}
	}
	// The last in-range positions still work.
	if _, cost := l.MustLookup("md5")(mem, []uint64{size - 64, 64}); cost == costDigestSetup {
		t.Error("md5 refused a buffer ending at the last byte of memory")
	}
	if _, cost := l.MustLookup("sqlite_exec")(mem, []uint64{size - tableBytes, 10, 1}); cost == costDigestSetup {
		t.Error("sqlite_exec refused a table ending at the last byte of memory")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustLookup of missing function must panic")
		}
	}()
	New().MustLookup("ghost")
}
