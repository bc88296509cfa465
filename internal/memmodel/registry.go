package memmodel

import (
	"fmt"
	"sort"
	"strings"
)

// Level identifies the instruction level a model (or a litmus program)
// lives at. Mapping schemes translate programs between levels; models
// judge programs of their own level.
type Level string

const (
	// LevelX86 is the x86 guest level.
	LevelX86 Level = "x86"
	// LevelSPARC is the SPARC guest level (TSO with the membar taxonomy).
	LevelSPARC Level = "sparc"
	// LevelIMM is the intermediate-memory-model level sitting between
	// guests and the TCG IR (Podkopaev et al.).
	LevelIMM Level = "imm"
	// LevelTCG is the TCG IR level.
	LevelTCG Level = "tcg"
	// LevelArm is the Arm host level.
	LevelArm Level = "arm"
)

// Levels returns every known level in guest→host order.
func Levels() []Level {
	return []Level{LevelX86, LevelSPARC, LevelIMM, LevelTCG, LevelArm}
}

// ParseLevel resolves a level name; ok is false for unknown names.
func ParseLevel(s string) (Level, bool) {
	for _, l := range Levels() {
		if string(l) == strings.ToLower(s) {
			return l, true
		}
	}
	return "", false
}

// RegistryEntry is one registered model with its lookup metadata.
type RegistryEntry struct {
	// Name is the model's canonical name (Model.Name()).
	Name string
	// Aliases are additional lookup keys ("x86", "tcg", …).
	Aliases []string
	// Level is the instruction level the model judges.
	Level Level
	// Model is the model's definition.
	Model Model
	// Variant marks secondary entries (e.g. the pre-fix Arm-Cats model)
	// that are resolvable by name but excluded from Canonical sweeps and
	// from level defaults.
	Variant bool
}

// Registry resolves model names to models. It replaces the constructor
// switches that used to be copy-pasted across litmusctl and campaign: call
// sites hold a name (or a level) and the registry is the single place that
// knows which Model answers to it.
//
// Lookup keys are normalized — case and punctuation are ignored — so
// "x86-TSO", "x86tso" and "X86_TSO" all resolve to the same entry.
type Registry struct {
	entries []*RegistryEntry
	byKey   map[string]*RegistryEntry
	byLevel map[Level]*RegistryEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byKey:   make(map[string]*RegistryEntry),
		byLevel: make(map[Level]*RegistryEntry),
	}
}

// normalizeKey folds case and strips punctuation so lookups tolerate the
// usual spelling variants.
func normalizeKey(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Register adds a canonical model under its own Name plus any aliases.
// The first canonical model registered per level becomes that level's
// default (ForLevel). Duplicate keys are an error.
func (r *Registry) Register(m Model, level Level, aliases ...string) error {
	return r.register(m, level, false, aliases...)
}

// RegisterVariant adds a secondary entry: resolvable by name and listed in
// Entries, but excluded from Canonical and never a level default.
func (r *Registry) RegisterVariant(m Model, level Level, aliases ...string) error {
	return r.register(m, level, true, aliases...)
}

func (r *Registry) register(m Model, level Level, variant bool, aliases ...string) error {
	e := &RegistryEntry{
		Name:    m.Name(),
		Aliases: aliases,
		Level:   level,
		Model:   m,
		Variant: variant,
	}
	keys := append([]string{e.Name}, aliases...)
	for _, k := range keys {
		nk := normalizeKey(k)
		if nk == "" {
			return fmt.Errorf("memmodel: empty registry key for model %q", e.Name)
		}
		if prev, dup := r.byKey[nk]; dup {
			return fmt.Errorf("memmodel: registry key %q for model %q already taken by %q", k, e.Name, prev.Name)
		}
		r.byKey[nk] = e
	}
	r.entries = append(r.entries, e)
	if !variant {
		if _, ok := r.byLevel[level]; !ok {
			r.byLevel[level] = e
		}
	}
	return nil
}

// MustRegister is Register, panicking on error (for static default tables).
func (r *Registry) MustRegister(m Model, level Level, aliases ...string) {
	if err := r.Register(m, level, aliases...); err != nil {
		panic(err)
	}
}

// MustRegisterVariant is RegisterVariant, panicking on error.
func (r *Registry) MustRegisterVariant(m Model, level Level, aliases ...string) {
	if err := r.RegisterVariant(m, level, aliases...); err != nil {
		panic(err)
	}
}

// Entry resolves a name (canonical or alias, spelling-tolerant) to its
// entry. The error message is the one canonical "unknown model" report
// every CLI and driver shares.
func (r *Registry) Entry(name string) (*RegistryEntry, error) {
	if e, ok := r.byKey[normalizeKey(name)]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("unknown memory model %q (known models: %s)", name, strings.Join(r.Names(), ", "))
}

// Lookup resolves a name to its model using the same rules as Entry.
func (r *Registry) Lookup(name string) (Model, error) {
	e, err := r.Entry(name)
	if err != nil {
		return Model{}, err
	}
	return e.Model, nil
}

// MustLookup is Lookup, panicking on unknown names (for static tables and
// tests where the name is a literal).
func (r *Registry) MustLookup(name string) Model {
	m, err := r.Lookup(name)
	if err != nil {
		panic(err)
	}
	return m
}

// ForLevel returns the level's default model: the first canonical model
// registered at that level.
func (r *Registry) ForLevel(l Level) (Model, bool) {
	e, ok := r.byLevel[l]
	if !ok {
		return Model{}, false
	}
	return e.Model, true
}

// Canonical returns the canonical (non-variant) models in registration
// order — the sweep set for corpus-wide commands.
func (r *Registry) Canonical() []Model {
	var out []Model
	for _, e := range r.entries {
		if !e.Variant {
			out = append(out, e.Model)
		}
	}
	return out
}

// Entries returns every registered entry (canonical then variants keep
// registration order).
func (r *Registry) Entries() []RegistryEntry {
	out := make([]RegistryEntry, len(r.entries))
	for i, e := range r.entries {
		out[i] = *e
	}
	return out
}

// Names returns every canonical name in registration order, variants
// included (sorted suffixes keep the message deterministic).
func (r *Registry) Names() []string {
	var canon, variants []string
	for _, e := range r.entries {
		if e.Variant {
			variants = append(variants, e.Name)
		} else {
			canon = append(canon, e.Name)
		}
	}
	sort.Strings(variants)
	return append(canon, variants...)
}
