package mapping

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/litmus"
	"repro/internal/memmodel"
)

// Placement is the pair of fences a scheme puts around one kind of
// access; FenceNone places nothing.
type Placement struct {
	Before, After memmodel.Fence
}

// RMWRule is how a scheme translates an RMW: the attributes of the RMW it
// emits and the fences it brackets it with. A rule naming no Class keeps
// the source RMW's.
type RMWRule struct {
	Before memmodel.Fence
	Attr   litmus.Attr
	After  memmodel.Fence
}

// Scheme is one translation hop between two instruction levels, as a
// table. Schemes are values: verifying a variant of one (an entry dropped
// or weakened) means editing a Clone. The package-level tables share their
// Fences maps and are what the translator emits from, so a plain struct
// copy still aliases them: never write through one.
type Scheme struct {
	// Name identifies the scheme ("x86→tcg/verified", …).
	Name string
	// Src and Dst are the levels the scheme translates between.
	Src, Dst memmodel.Level
	// Verified reports whether the scheme is claimed sound (Theorem 1 must
	// hold for it); the matrix asserts every verified route passes and
	// known-bad (unverified) routes are reported, not required to pass.
	Verified bool
	// Load and Store are the fences placed around every load and store.
	Load, Store Placement
	// Fences rewrites the source level's own fences: absent = kept,
	// FenceNone = dropped.
	Fences map[memmodel.Fence]memmodel.Fence
	// RMW translates the source level's RMWs.
	RMW RMWRule
}

// Clone returns a copy of the table sharing nothing with s.
func (s *Scheme) Clone() *Scheme {
	c := *s
	c.Fences = maps.Clone(s.Fences)
	return &c
}

// Fence returns what the scheme turns source fence k into (FenceNone =
// nothing).
func (s *Scheme) Fence(k memmodel.Fence) memmodel.Fence {
	if to, ok := s.Fences[k]; ok {
		return to
	}
	return k
}

// Apply translates a program of the Src level to the Dst level, naming it
// "<name>→<dst>". Access attributes belong to a level (acquire/release
// are Arm's, SC is the IR's), so they do not carry over a hop: plain
// accesses come out plain and an RMW comes out with the rule's.
func (s *Scheme) Apply(p *litmus.Program) *litmus.Program {
	out := &litmus.Program{Name: p.Name + "→" + string(s.Dst), Threads: make([][]litmus.Op, len(p.Threads))}
	for i, t := range p.Threads {
		out.Threads[i] = s.applyOps(t)
	}
	return out
}

// applyOps reads the table for each op, recursing into conditionals.
func (s *Scheme) applyOps(ops []litmus.Op) []litmus.Op {
	out := make([]litmus.Op, 0, 2*len(ops))
	for _, op := range ops {
		var around Placement
		switch o := op.(type) {
		case litmus.Load:
			around, op = s.Load, litmus.Load{Dst: o.Dst, Loc: o.Loc}
		case litmus.LoadIdx:
			around, op = s.Load, litmus.LoadIdx{Dst: o.Dst, Idx: o.Idx, Loc0: o.Loc0, Loc1: o.Loc1}
		case litmus.Store:
			around, op = s.Store, litmus.Store{Loc: o.Loc, Val: o.Val}
		case litmus.StoreReg:
			around, op = s.Store, litmus.StoreReg{Loc: o.Loc, Src: o.Src}
		case litmus.StoreIdx:
			around, op = s.Store, litmus.StoreIdx{Idx: o.Idx, Loc0: o.Loc0, Loc1: o.Loc1, Val: o.Val}
		case litmus.CAS:
			around = Placement{s.RMW.Before, s.RMW.After}
			src := o.Class
			if o.Attr = s.RMW.Attr; o.Class == memmodel.RMWNone {
				o.Class = src
			}
			op = o
		case litmus.Fence:
			if o.K = s.Fence(o.K); o.K == memmodel.FenceNone {
				continue
			}
			op = o
		case litmus.If:
			o.Body = s.applyOps(o.Body)
			op = o
		}
		if around.Before != memmodel.FenceNone {
			out = append(out, litmus.Fence{K: around.Before})
		}
		out = append(out, op)
		if around.After != memmodel.FenceNone {
			out = append(out, litmus.Fence{K: around.After})
		}
	}
	return out
}

// SchemeRegistry resolves scheme names and enumerates routes (scheme
// chains) between levels. The zero value is an empty registry.
type SchemeRegistry struct {
	schemes []*Scheme
}

// Register adds a scheme; duplicate names and self-loops (Src == Dst,
// which would make route enumeration diverge) are errors.
func (r *SchemeRegistry) Register(s *Scheme) error {
	if s.Src == s.Dst {
		return fmt.Errorf("mapping: scheme %q maps level %q to itself", s.Name, s.Src)
	}
	if slices.ContainsFunc(r.schemes, func(o *Scheme) bool { return o.Name == s.Name }) {
		return fmt.Errorf("mapping: scheme %q already registered", s.Name)
	}
	r.schemes = append(r.schemes, s)
	return nil
}

// MustRegister is Register, panicking on error.
func (r *SchemeRegistry) MustRegister(s *Scheme) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Lookup resolves a scheme by name, with the canonical unknown-scheme
// error listing what is registered.
func (r *SchemeRegistry) Lookup(name string) (*Scheme, error) {
	names := make([]string, len(r.schemes))
	for i, s := range r.schemes {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return nil, fmt.Errorf("unknown mapping scheme %q (known schemes: %s)", name, strings.Join(names, ", "))
}

// Routes enumerates every simple route (no level visited twice) from src
// to dst, depth-first in registration order, so the result is
// deterministic for a deterministically-built registry. src == dst yields
// no routes: models of one level are compared directly, not via schemes.
func (r *SchemeRegistry) Routes(src, dst memmodel.Level) [][]*Scheme {
	var out [][]*Scheme
	var chain []*Scheme
	visited := map[memmodel.Level]bool{src: true}
	var walk func(at memmodel.Level)
	walk = func(at memmodel.Level) {
		for _, s := range r.schemes {
			if s.Src != at || visited[s.Dst] {
				continue
			}
			chain = append(chain, s)
			if s.Dst == dst {
				out = append(out, append([]*Scheme(nil), chain...))
			} else {
				visited[s.Dst] = true
				walk(s.Dst)
				visited[s.Dst] = false
			}
			chain = chain[:len(chain)-1]
		}
	}
	walk(src)
	return out
}

// VerifiedRoute returns the first shortest all-verified route from src to
// dst (nil if none); an empty route for src == dst. "First" follows
// registration order, so the canonical verified chain is whichever sound
// scheme was registered first per hop.
func (r *SchemeRegistry) VerifiedRoute(src, dst memmodel.Level) ([]*Scheme, bool) {
	if src == dst {
		return []*Scheme{}, true
	}
	var best []*Scheme
	for _, route := range r.Routes(src, dst) {
		if RouteVerified(route) && (best == nil || len(route) < len(best)) {
			best = route
		}
	}
	return best, best != nil
}

// ApplyRoute runs a program through every hop of a route.
func ApplyRoute(route []*Scheme, p *litmus.Program) *litmus.Program {
	for _, s := range route {
		p = s.Apply(p)
	}
	return p
}

// RouteName renders a route as its hop names joined with " + ".
func RouteName(route []*Scheme) string {
	if len(route) == 0 {
		return "(identity)"
	}
	names := make([]string, len(route))
	for i, s := range route {
		names[i] = s.Name
	}
	return strings.Join(names, " + ")
}

// RouteVerified reports whether every hop of the route is verified.
func RouteVerified(route []*Scheme) bool {
	for _, s := range route {
		if !s.Verified {
			return false
		}
	}
	return true
}

// The SPARC and IMM hops.
var (
	// x86ToSPARC: both levels are TSO, so accesses carry over unfenced and
	// MFENCE becomes the minimal TSO-sufficient barrier, membar #StoreLoad
	// (the other three directions are already preserved program order).
	x86ToSPARC = &Scheme{
		Name: "x86→sparc/membar", Src: memmodel.LevelX86, Dst: memmodel.LevelSPARC, Verified: true,
		Fences: map[memmodel.Fence]memmodel.Fence{memmodel.FenceMFENCE: memmodel.FenceMembarSL},
	}
	// sparcToTCG is Figure 7a's placement plus the membar taxonomy: each
	// membar direction maps to the directional IR fence of the same shape.
	sparcToTCG = &Scheme{
		Name: "sparc→tcg/verified", Src: memmodel.LevelSPARC, Dst: memmodel.LevelTCG, Verified: true,
		Load: X86Verified.Load, Store: X86Verified.Store, RMW: X86Verified.RMW,
		Fences: map[memmodel.Fence]memmodel.Fence{
			memmodel.FenceMembarLL: memmodel.FenceFrr, memmodel.FenceMembarLS: memmodel.FenceFrw,
			memmodel.FenceMembarSL: memmodel.FenceFwr, memmodel.FenceMembarSS: memmodel.FenceFww,
		},
	}
	// IMM speaks the IR fence vocabulary and its dependency order is a
	// subset of Armed-Cats' dob, so the verified IMM hops are the verified
	// IR tables under another level label.
	x86ToIMM = X86Verified.relabel("x86→imm/verified", memmodel.LevelX86, memmodel.LevelIMM)
	immToArm = ArmVerified.relabel("imm→arm/verified", memmodel.LevelIMM, memmodel.LevelArm)
)

// relabel returns a copy of the table under another name and level pair.
func (s *Scheme) relabel(name string, src, dst memmodel.Level) *Scheme {
	c := s.Clone()
	c.Name, c.Src, c.Dst = name, src, dst
	return c
}

// DefaultSchemes returns the registry of built-in schemes: Risotto's
// verified x86→IR→Arm chain (both RMW lowering styles), QEMU's original
// lowerings (all three known-bad: the leading-fence x86→IR mapping
// already misorders MPQ's failed RMW at the IR level, and the IR→Arm RMW
// helper lowerings are the paper's §3.1–3.2 translation errors), and the
// SPARC/IMM hops. Admitting a scheme means one table value plus its name
// in this list.
func DefaultSchemes() *SchemeRegistry {
	r := &SchemeRegistry{}
	for _, s := range []*Scheme{
		X86Verified, X86Qemu, x86ToSPARC, x86ToIMM, sparcToTCG,
		ArmVerified, ArmVerifiedLxSx, ArmQemuCasal, ArmQemuLxSx, immToArm,
	} {
		r.MustRegister(s)
	}
	return r
}
