// Functional-options construction for the runtime. The historical
// struct-literal Config grew one field per PR until every caller carried a
// sprawling literal naming defaults it didn't care about; New now takes
// the guest image plus options, mirroring litmus.Enumerate(p, m, ...Option).
// Config itself survives as the internal parameter block and the crash-
// bundle replay contract (ReplayOptions); New is the one exported
// constructor.

package core

import (
	"time"

	"repro/internal/faults"
	"repro/internal/guestimg"
	"repro/internal/hostlib"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/tcg"
)

// Option configures a Runtime under construction.
type Option func(*Config)

// WithVariant selects the DBT setup (default VariantQemu).
func WithVariant(v Variant) Option {
	return func(c *Config) { c.Variant = v }
}

// WithMemSize sets the machine memory size in bytes.
func WithMemSize(bytes int) Option {
	return func(c *Config) { c.MemSize = bytes }
}

// WithCodeCacheBase places the generated-code region.
func WithCodeCacheBase(addr uint64) Option {
	return func(c *Config) { c.CodeCacheBase = addr }
}

// WithHostLinker enables the dynamic host linker (§6.2) for the functions
// the IDL source declares; lib nil means hostlib.Default().
func WithHostLinker(idlSrc string, lib *hostlib.Library) Option {
	return func(c *Config) { c.IDL, c.Lib = idlSrc, lib }
}

// WithQuantum sets the round-robin scheduling quantum in instructions of a
// strong-host run.
func WithQuantum(insts int) Option {
	return func(c *Config) { c.Quantum = insts }
}

// WithOptConfig overrides the variant's optimizer configuration (the
// ablation benchmarks' knob).
func WithOptConfig(o tcg.OptConfig) Option {
	return func(c *Config) { c.Opt = &o }
}

// WithChain enables translation-block chaining (QEMU's goto_tb).
func WithChain(on bool) Option {
	return func(c *Config) { c.Chain = on }
}

// WithWeakMemory runs the simulated host in operational weak-memory mode,
// as a walk of the machine's transition system seeded by seed (the
// scheduling quantum does not apply).
func WithWeakMemory(seed int64) Option {
	return func(c *Config) { s := seed; c.WeakSeed = &s }
}

// WithStepBudget bounds each vCPU's executed host instructions.
func WithStepBudget(n uint64) Option {
	return func(c *Config) { c.StepBudget = n }
}

// WithDeadline sets the wall-clock watchdog for Run.
func WithDeadline(d time.Duration) Option {
	return func(c *Config) { c.Deadline = d }
}

// WithFaults arms deterministic fault injection.
func WithFaults(inj *faults.Injector) Option {
	return func(c *Config) { c.Inject = inj }
}

// WithSelfHeal enables the tiered self-healing layer.
func WithSelfHeal(on bool) Option {
	return func(c *Config) { c.SelfHeal = on }
}

// WithSelfCheck enables runtime translation validation (implies SelfHeal).
func WithSelfCheck(on bool) Option {
	return func(c *Config) { c.SelfCheck = on }
}

// WithProvenance records the CLI inputs (kernel name, fault spec) for
// crash bundles; it does not affect execution.
func WithProvenance(kernel, faultSpec string) Option {
	return func(c *Config) { c.Kernel, c.FaultSpec = kernel, faultSpec }
}

// WithObs sets the observability scope the whole stack reports into.
func WithObs(sc *obs.Scope) Option {
	return func(c *Config) { c.Obs = sc }
}

// WithTranslationCache installs a persistent translation cache.
func WithTranslationCache(tc TranslationCache) Option {
	return func(c *Config) { c.TransCache = tc }
}

// WithMachine runs the runtime on m, reset, instead of on a new machine,
// so a long-running caller keeps one machine per worker; m nil means a new
// one. A caller hands m to the next New only once it is done with this
// runtime.
func WithMachine(m *machine.Machine) Option {
	return func(c *Config) { c.Machine = m }
}

// WithTierUp enables the tier-up JIT: hot blocks are promoted, as
// superblock translation units, by the dispatch that finds them hot. Zero
// fields of tu take their defaults (threshold 8, superblock max 4).
func WithTierUp(tu TierUpConfig) Option {
	return func(c *Config) { c.TierUp = tu }
}

// New creates a runtime for the guest image, configured by options.
func New(img *guestimg.Image, opts ...Option) (*Runtime, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return newRuntime(cfg, img)
}
