package serve

import "repro/internal/machine"

// idleMachines returns what each idle worker slot holds — its machine, or
// nil — leaving the slots as they were. Call it only with no job running.
func (s *Server) idleMachines() []*machine.Machine {
	ms := make([]*machine.Machine, s.cfg.Workers)
	for i := range ms {
		ms[i] = <-s.workerSlots
	}
	for _, m := range ms {
		s.workerSlots <- m
	}
	return ms
}
