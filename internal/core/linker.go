package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/idl"
	"repro/internal/isa/x86"
	"repro/internal/machine"
)

// Guest integer-argument registers, in ABI order (System-V-like).
var guestArgRegs = [...]x86.Reg{x86.RDI, x86.RSI, x86.RDX, x86.RCX, x86.R8, x86.R9}

// hostCall performs a host-linked shared-library call (§6.2, steps 4–5):
// marshal arguments from the guest ABI, invoke the native function, write
// the return value back, and return to the guest caller. It runs when
// dispatch lands on a PLT entry that the IDL declared.
func (rt *Runtime) hostCall(c *machine.CPU, e *pltEntry) error {
	m := rt.M
	if t := rt.cfg.Inject.Hit(faults.SiteHostCall); t != nil {
		t.Msg = fmt.Sprintf("host call %s: %s", e.name, t.Msg)
		return t.WithCPU(c.ID)
	}
	// The host function and the return-address read below see memory,
	// not the caller's store buffer, which may still hold the CALL's push.
	if err := rt.drainFor(c); err != nil {
		return err
	}
	rt.met.hostCalls.Inc()
	hcStart := rt.obs.Begin()
	defer func() { rt.obs.Span("core.host_call", e.name, c.ID, 0, 0, hcStart) }()

	// Marshal arguments: guest register values are copied into the host
	// call (for Arm/x86 both pass the first arguments in registers, so
	// the runtime copies register to register — §6.2).
	if len(e.sig.Params) > len(guestArgRegs) {
		return faults.New(faults.TrapHostCall,
			"core: %s: too many parameters (%d)", e.name, len(e.sig.Params)).WithCPU(c.ID)
	}
	args := make([]uint64, len(e.sig.Params))
	for i, p := range e.sig.Params {
		v := *guestReg(c, guestArgRegs[i])
		switch p {
		case idl.I32:
			v = uint64(int64(int32(v)))
		case idl.U32:
			v = v & 0xFFFFFFFF
		}
		args[i] = v
	}
	c.Cycles += marshalBase + marshalPerArg*uint64(len(args))

	// Native execution.
	result, cost := e.fn(m, args)
	c.Cycles += cost

	// Marshal the result back into guest RAX.
	if e.sig.Return != idl.Void {
		*guestReg(c, x86.RAX) = result
	}

	// Return to the guest caller: the CALL that reached the PLT pushed
	// the return address.
	sp := guestReg(c, x86.RSP)
	ret, err := m.ReadMem(*sp, 8)
	if err != nil {
		return faults.Wrap(faults.TrapHostCall, err,
			"core: %s: reading return address", e.name).WithCPU(c.ID)
	}
	*sp += 8
	return rt.dispatch(c, ret)
}
