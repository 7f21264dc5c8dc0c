package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"roadrunner/internal/core"
)

// keyFormatVersion prefixes every hashed spec encoding. Bump it whenever
// the canonical encoding or the simulator's result semantics change in a
// way that invalidates stored results: old store entries then simply stop
// matching instead of being served for runs they no longer describe.
const keyFormatVersion = "roadrunner-runkey-v1"

// RunSpec is one fully specified experiment: a configuration (seed and
// fault plan included) plus a declarative strategy. It is the unit the
// scheduler executes and the store addresses.
type RunSpec struct {
	// Name labels the run inside its campaign; it carries no semantic
	// weight and is excluded from the run key.
	Name string `json:"name"`
	// Strategy selects and parameterizes the learning strategy.
	Strategy StrategySpec `json:"strategy"`
	// Config is the complete experiment configuration.
	Config core.Config `json:"config"`
}

// CanonicalBytes is the byte-stable encoding the run key hashes: the key
// format version, the strategy spec, and the canonical configuration
// encoding (which covers the (config, seed, faults.Plan) triple and
// normalizes away result-invariant fields). Labels are excluded — renaming
// a run must not invalidate its cached result.
func (r RunSpec) CanonicalBytes() ([]byte, error) {
	stratJSON, err := json.Marshal(r.Strategy)
	if err != nil {
		return nil, fmt.Errorf("campaign: canonical spec: %w", err)
	}
	cfgJSON, err := core.CanonicalConfigJSON(r.Config)
	if err != nil {
		return nil, fmt.Errorf("campaign: canonical spec: %w", err)
	}
	out := make([]byte, 0, len(keyFormatVersion)+len(stratJSON)+len(cfgJSON)+32)
	out = append(out, keyFormatVersion...)
	out = append(out, "\nstrategy "...)
	out = append(out, stratJSON...)
	out = append(out, "\nconfig "...)
	out = append(out, cfgJSON...)
	out = append(out, '\n')
	return out, nil
}

// Key returns the run's content address: the hex SHA-256 of its canonical
// encoding. The determinism contract — (config, seed, faults.Plan) plus
// the strategy fully determine a run's canonical result bytes — is what
// makes this hash a valid cache key: equal keys imply byte-identical
// results, so a stored result can stand in for execution.
func (r RunSpec) Key() (string, error) {
	b, err := r.CanonicalBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Execute validates the spec, builds a fresh strategy instance, and runs
// the experiment to completion.
func (r RunSpec) Execute() (*core.Result, error) {
	strat, err := r.Strategy.Build()
	if err != nil {
		return nil, err
	}
	exp, err := core.New(r.Config, strat)
	if err != nil {
		return nil, fmt.Errorf("campaign: run %q: %w", r.Name, err)
	}
	res, err := exp.Run()
	if err != nil {
		return nil, fmt.Errorf("campaign: run %q: %w", r.Name, err)
	}
	return res, nil
}
