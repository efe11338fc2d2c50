package engine

import (
	"fmt"
	"sort"
	"strings"
)

// Info describes one registered algorithm for enumeration: the registry
// is how tooling (match.Algorithms, matchsolve -algo list, bench E16)
// learns what substrates exist and how they pay for a matching.
type Info struct {
	// Name is the registry key (kebab-case, e.g. "dual-primal").
	Name string `json:"name"`
	// Model is the model of computation the algorithm belongs to
	// (semi-streaming, congested clique, offline, ...).
	Model string `json:"model"`
	// Guarantee states the approximation guarantee.
	Guarantee string `json:"guarantee"`
	// Resources is the resource profile in the paper's currency: passes,
	// rounds, central words.
	Resources string `json:"resources"`
}

// Params is the model-agnostic configuration a Factory receives: the
// subset of solver options every substrate can meaningfully interpret
// (or ignore). Algorithm-specific knobs beyond these stay behind the
// algorithm's own package API.
type Params struct {
	// Eps is the accuracy target for algorithms that take one.
	Eps float64
	// P is the space exponent p > 1 (central space ~ n^(1+1/p)).
	P float64
	// Seed drives all randomness.
	Seed uint64
	// Workers shards parallelizable per-edge work (0 = GOMAXPROCS).
	Workers int
	// MaxRounds overrides the algorithm's own round cap (0 = default).
	MaxRounds int
}

// Factory builds a fresh Algorithm instance for one run. Factories
// validate the params they use and must return an algorithm whose state
// is independent of any previous run.
type Factory func(p Params) (Algorithm, error)

type registration struct {
	info    Info
	factory Factory
}

var registry = map[string]registration{}

// Register adds an algorithm to the registry. It is called from package
// init functions (internal/core for the dual-primal solver,
// internal/algos for the ported substrates) and panics on a duplicate or
// empty name — both are programmer errors.
func Register(info Info, f Factory) {
	if info.Name == "" {
		panic("engine: Register with empty name")
	}
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate algorithm %q", info.Name))
	}
	registry[info.Name] = registration{info: info, factory: f}
}

// New builds a fresh instance of the named registry algorithm.
func New(name string, p Params) (Algorithm, error) {
	reg, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q (registered: %s)", name, Names())
	}
	alg, err := reg.factory(p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return alg, nil
}

// Lookup returns the registration for name.
func Lookup(name string) (Info, Factory, bool) {
	reg, ok := registry[name]
	return reg.info, reg.factory, ok
}

// List returns every registered algorithm's Info, sorted by name.
func List() []Info {
	out := make([]Info, 0, len(registry))
	for _, reg := range registry {
		out = append(out, reg.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registered names, joined for error messages.
func Names() string {
	infos := List()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	return strings.Join(names, ", ")
}
