package litmus

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/memmodel"
)

// Text format for litmus tests, inspired by herd's .litmus files but
// line-based for easy authoring:
//
//	test MP
//	thread 0
//	  store X 1
//	  store Y 1
//	thread 1
//	  load a Y
//	  load b X
//	forbid a@1=1 b@1=0
//	allow  a@1=0 b@1=0
//
// Statements (one per line, '#' starts a comment):
//
//	store LOC VAL [rel] [sc]
//	storereg LOC REG [rel] [sc]
//	load REG LOC [acq] [acqpc] [sc]
//	loadidx REG IDXREG LOC0 LOC1   — address-dependent load (low bit of
//	                                 IDXREG selects the location)
//	storeidx IDXREG LOC0 LOC1 VAL  — address-dependent store
//	mov REG VAL
//	cas LOC EXPECT NEW [-> REG] [amo] [lxsx] [acq] [rel] [sc]
//	fence KIND          — mfence, frr…fsc, dmbff, dmbld, dmbst
//	if REG == VAL … endif     (also !=; nesting allowed)
//
// Expectations ('forbid'/'allow' lines) list conjuncts of the form
// REG@THREAD=VAL (final register value) or LOC=VAL (final memory value);
// CheckExpectations evaluates them against a model's outcome set.

// Expectation is one allow/forbid line.
type Expectation struct {
	// Allow is true for 'allow' lines (the outcome must be present) and
	// false for 'forbid' lines (it must be absent).
	Allow bool
	// Fragments are outcome tokens in the canonical "t:reg=v" / "loc=v"
	// form used by OutcomeSet.Contains.
	Fragments []string
}

// ParsedTest is a program plus its expectations.
type ParsedTest struct {
	Program      *Program
	Expectations []Expectation
	// Model optionally names the instruction level the expectations
	// target (a memmodel.Level string from a `model` directive); empty
	// means unspecified and callers decide.
	Model string
}

var fenceNamesByString = map[string]memmodel.Fence{
	"mfence": memmodel.FenceMFENCE,
	"frr":    memmodel.FenceFrr, "frw": memmodel.FenceFrw, "frm": memmodel.FenceFrm,
	"fww": memmodel.FenceFww, "fwr": memmodel.FenceFwr, "fwm": memmodel.FenceFwm,
	"fmr": memmodel.FenceFmr, "fmw": memmodel.FenceFmw, "fmm": memmodel.FenceFmm,
	"facq": memmodel.FenceFacq, "frel": memmodel.FenceFrel, "fsc": memmodel.FenceFsc,
	"dmbff": memmodel.FenceDMBFF, "dmbld": memmodel.FenceDMBLD, "dmbst": memmodel.FenceDMBST,
	"membarll": memmodel.FenceMembarLL, "membarls": memmodel.FenceMembarLS,
	"membarsl": memmodel.FenceMembarSL, "membarss": memmodel.FenceMembarSS,
}

// Parse reads a litmus test in the text format.
func Parse(src string) (*ParsedTest, error) {
	pt := &ParsedTest{Program: &Program{}}
	// Per-thread op stacks to support nested ifs: the innermost slice is
	// where ops are appended.
	var curThread int = -1
	type frame struct {
		ifOp If
	}
	var stack []frame
	// dest returns the op slice to append to.
	appendOp := func(op Op) error {
		if curThread < 0 {
			return fmt.Errorf("statement outside a thread")
		}
		if len(stack) > 0 {
			f := &stack[len(stack)-1]
			f.ifOp.Body = append(f.ifOp.Body, op)
			return nil
		}
		pt.Program.Threads[curThread] = append(pt.Program.Threads[curThread], op)
		return nil
	}

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("litmus: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}

		switch fields[0] {
		case "test":
			if len(fields) != 2 {
				return nil, errf("usage: test NAME")
			}
			pt.Program.Name = fields[1]
		case "model":
			if len(fields) != 2 {
				return nil, errf("usage: model LEVEL")
			}
			l, ok := memmodel.ParseLevel(fields[1])
			if !ok {
				return nil, errf("unknown model %q (want one of %s)",
					fields[1], strings.Join(levelNames(), ", "))
			}
			pt.Model = string(l)
		case "thread":
			if len(stack) > 0 {
				return nil, errf("unterminated if before new thread")
			}
			if len(fields) != 2 {
				return nil, errf("usage: thread N")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n != len(pt.Program.Threads) {
				return nil, errf("threads must be declared in order starting at 0")
			}
			pt.Program.Threads = append(pt.Program.Threads, nil)
			curThread = n
		case "store", "storereg", "load", "loadidx", "storeidx", "mov", "cas", "fence":
			op, err := parseStmt(fields)
			if err != nil {
				return nil, errf("%v", err)
			}
			if err := appendOp(op); err != nil {
				return nil, errf("%v", err)
			}
		case "if":
			// if REG == VAL   |   if REG != VAL
			if len(fields) != 4 || (fields[2] != "==" && fields[2] != "!=") {
				return nil, errf("usage: if REG ==|!= VAL")
			}
			v, err := strconv.ParseInt(fields[3], 0, 64)
			if err != nil {
				return nil, errf("bad value %q", fields[3])
			}
			if curThread < 0 {
				return nil, errf("if outside a thread")
			}
			stack = append(stack, frame{ifOp: If{
				Reg: Reg(fields[1]), Eq: fields[2] == "==", Val: v,
			}})
		case "endif":
			if len(stack) == 0 {
				return nil, errf("endif without if")
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := appendOp(f.ifOp); err != nil {
				return nil, errf("%v", err)
			}
		case "allow", "forbid":
			exp := Expectation{Allow: fields[0] == "allow"}
			for _, tok := range fields[1:] {
				frag, err := parseFragment(tok)
				if err != nil {
					return nil, errf("%v", err)
				}
				exp.Fragments = append(exp.Fragments, frag)
			}
			if len(exp.Fragments) == 0 {
				return nil, errf("%s needs at least one condition", fields[0])
			}
			pt.Expectations = append(pt.Expectations, exp)
		default:
			return nil, errf("unknown statement %q", fields[0])
		}
	}
	if len(stack) > 0 {
		return nil, fmt.Errorf("litmus: unterminated if")
	}
	if pt.Program.Name == "" {
		return nil, fmt.Errorf("litmus: missing 'test NAME'")
	}
	if len(pt.Program.Threads) == 0 {
		return nil, fmt.Errorf("litmus: no threads")
	}
	// A register read that nothing assigns (a typo, usually) would leave the
	// test with no executions, and every forbid line vacuously true.
	if _, err := compile(pt.Program); err != nil {
		return nil, err
	}
	return pt, nil
}

// parseStmt parses one op statement.
func parseStmt(fields []string) (Op, error) {
	attr, rest, err := parseAttrs(fields)
	if err != nil {
		return nil, err
	}
	switch rest[0] {
	case "store":
		if len(rest) != 3 {
			return nil, fmt.Errorf("usage: store LOC VAL [attrs]")
		}
		v, err := strconv.ParseInt(rest[2], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", rest[2])
		}
		return Store{Loc: Loc(rest[1]), Val: v, Attr: attr}, nil
	case "storereg":
		if len(rest) != 3 {
			return nil, fmt.Errorf("usage: storereg LOC REG [attrs]")
		}
		return StoreReg{Loc: Loc(rest[1]), Src: Reg(rest[2]), Attr: attr}, nil
	case "load":
		if len(rest) != 3 {
			return nil, fmt.Errorf("usage: load REG LOC [attrs]")
		}
		return Load{Dst: Reg(rest[1]), Loc: Loc(rest[2]), Attr: attr}, nil
	case "loadidx":
		if len(rest) != 5 {
			return nil, fmt.Errorf("usage: loadidx REG IDXREG LOC0 LOC1 [attrs]")
		}
		return LoadIdx{Dst: Reg(rest[1]), Idx: Reg(rest[2]),
			Loc0: Loc(rest[3]), Loc1: Loc(rest[4]), Attr: attr}, nil
	case "storeidx":
		if len(rest) != 5 {
			return nil, fmt.Errorf("usage: storeidx IDXREG LOC0 LOC1 VAL [attrs]")
		}
		v, err := strconv.ParseInt(rest[4], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", rest[4])
		}
		return StoreIdx{Idx: Reg(rest[1]), Loc0: Loc(rest[2]), Loc1: Loc(rest[3]),
			Val: v, Attr: attr}, nil
	case "mov":
		if len(rest) != 3 {
			return nil, fmt.Errorf("usage: mov REG VAL")
		}
		v, err := strconv.ParseInt(rest[2], 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", rest[2])
		}
		return MovImm{Dst: Reg(rest[1]), Val: v}, nil
	case "cas":
		// cas LOC EXPECT NEW [-> REG] [attrs]
		if len(rest) < 4 {
			return nil, fmt.Errorf("usage: cas LOC EXPECT NEW [-> REG] [attrs]")
		}
		exp, err1 := strconv.ParseInt(rest[2], 0, 64)
		nv, err2 := strconv.ParseInt(rest[3], 0, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad cas values")
		}
		op := CAS{Loc: Loc(rest[1]), Expect: exp, New: nv, Attr: attr}
		if op.Class == memmodel.RMWNone {
			op.Class = memmodel.RMWAmo
		}
		if len(rest) == 6 && rest[4] == "->" {
			op.Dst = Reg(rest[5])
		} else if len(rest) != 4 {
			return nil, fmt.Errorf("usage: cas LOC EXPECT NEW [-> REG] [attrs]")
		}
		return op, nil
	case "fence":
		if len(rest) != 2 {
			return nil, fmt.Errorf("usage: fence KIND")
		}
		k, ok := fenceNamesByString[strings.ToLower(rest[1])]
		if !ok {
			return nil, fmt.Errorf("unknown fence %q", rest[1])
		}
		return Fence{K: k}, nil
	}
	return nil, fmt.Errorf("unknown statement %q", rest[0])
}

// parseAttrs strips trailing attribute keywords and returns them plus the
// remaining fields.
func parseAttrs(fields []string) (Attr, []string, error) {
	var attr Attr
	end := len(fields)
	for end > 0 {
		switch strings.ToLower(fields[end-1]) {
		case "acq":
			attr.Acq = true
		case "acqpc":
			attr.AcqPC = true
		case "rel":
			attr.Rel = true
		case "sc":
			attr.SC = true
		case "amo":
			attr.Class = memmodel.RMWAmo
		case "lxsx":
			attr.Class = memmodel.RMWLxSx
		default:
			return attr, fields[:end], nil
		}
		end--
	}
	return attr, fields[:end], nil
}

// parseFragment converts "a@1=1" or "X=2" into the canonical outcome token.
func parseFragment(tok string) (string, error) {
	eq := strings.IndexByte(tok, '=')
	if eq < 0 {
		return "", fmt.Errorf("expectation %q lacks '='", tok)
	}
	lhs, rhs := tok[:eq], tok[eq+1:]
	if _, err := strconv.ParseInt(rhs, 0, 64); err != nil {
		return "", fmt.Errorf("bad expectation value %q", rhs)
	}
	if at := strings.IndexByte(lhs, '@'); at >= 0 {
		reg, thr := lhs[:at], lhs[at+1:]
		if _, err := strconv.Atoi(thr); err != nil {
			return "", fmt.Errorf("bad thread in %q", tok)
		}
		return fmt.Sprintf("%s:%s=%s", thr, reg, rhs), nil
	}
	return fmt.Sprintf("%s=%s", lhs, rhs), nil
}

// levelNames lists the accepted `model` directive values.
func levelNames() []string {
	var out []string
	for _, l := range memmodel.Levels() {
		out = append(out, string(l))
	}
	return out
}

// CheckExpectations evaluates a parsed test's expectations against a
// model, returning one failure message per violated expectation.
func CheckExpectations(pt *ParsedTest, m memmodel.Model) []string {
	out := Outcomes(pt.Program, m)
	var failures []string
	for _, e := range pt.Expectations {
		has := out.Contains(e.Fragments...)
		if e.Allow && !has {
			failures = append(failures,
				fmt.Sprintf("%s: expected ALLOWED outcome %v is absent under %s",
					pt.Program.Name, e.Fragments, m.Name()))
		}
		if !e.Allow && has {
			failures = append(failures,
				fmt.Sprintf("%s: FORBIDDEN outcome %v is present under %s",
					pt.Program.Name, e.Fragments, m.Name()))
		}
	}
	return failures
}
