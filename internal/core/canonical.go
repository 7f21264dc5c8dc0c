package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteCanonical writes a deterministic, byte-stable serialization of the
// result: the reproducibility contract ("a configuration and a seed fully
// determine an experiment run") made checkable. Two runs with identical
// (config, seed) produce identical bytes regardless of host speed, sweep
// worker count, or map iteration order — series appear in first-recorded
// order (itself deterministic under the contract), counters and comm
// channels are sorted by name, floats round-trip exactly, and Wall is
// excluded because host timing is the one field allowed to differ between
// otherwise identical runs.
func (r *Result) WriteCanonical(w io.Writer) error {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if _, err := fmt.Fprintf(w, "end %s\nevents %d\nfinal_accuracy %s\n",
		ff(float64(r.End)), r.EventsProcessed, ff(r.FinalAccuracy)); err != nil {
		return fmt.Errorf("core: write canonical: %w", err)
	}
	if r.Metrics != nil {
		for _, name := range r.Metrics.SeriesNames() {
			s := r.Metrics.Series(name)
			if _, err := fmt.Fprintf(w, "series %s n=%d\n", name, s.Len()); err != nil {
				return fmt.Errorf("core: write canonical: %w", err)
			}
			for _, p := range s.Points {
				if _, err := fmt.Fprintf(w, "point %s %s\n", ff(float64(p.T)), ff(p.Value)); err != nil {
					return fmt.Errorf("core: write canonical: %w", err)
				}
			}
		}
		counters := r.Metrics.CounterNames()
		sort.Strings(counters)
		for _, name := range counters {
			if _, err := fmt.Fprintf(w, "counter %s %s\n", name, ff(r.Metrics.Counter(name))); err != nil {
				return fmt.Errorf("core: write canonical: %w", err)
			}
		}
	}
	kinds := make([]string, 0, len(r.Comm))
	for kind := range r.Comm {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		s := r.Comm[kind]
		if _, err := fmt.Fprintf(w, "comm %s sent=%d delivered=%d failed=%d bytes_attempted=%d bytes_delivered=%d\n",
			kind, s.MessagesSent, s.MessagesDelivered, s.MessagesFailed, s.BytesAttempted, s.BytesDelivered); err != nil {
			return fmt.Errorf("core: write canonical: %w", err)
		}
	}
	return nil
}

// CanonicalBytes returns WriteCanonical's output, the byte string that
// determinism regression tests compare across runs.
func (r *Result) CanonicalBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteCanonical(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CanonicalConfigJSON is the configuration-side half of the reproducibility
// contract made hashable: a byte-stable encoding of everything in a Config
// that can influence a run's recorded results. Go's encoding/json emits
// struct fields in declaration order and the Config tree contains no maps,
// so the encoding is deterministic across processes and hosts; fields that
// are result-invariant by construction are normalized away — LogWriter is
// excluded from JSON entirely, and Trace is zeroed because the span tracer
// observes a run on the virtual clock without perturbing any random stream or
// recorded metric. Content-addressed run caching (internal/campaign) hashes
// this encoding: two configs with equal CanonicalConfigJSON produce
// byte-identical Result.CanonicalBytes for the same strategy.
// ChannelRecord is zeroed for the same reason as Trace: the channel-trace
// recorder observes transfers without consuming randomness. (The channel
// *model* selection, Comm.Channel, is NOT normalized away — it changes
// transfer durations and therefore results.)
func CanonicalConfigJSON(cfg Config) ([]byte, error) {
	cfg.Trace = false
	cfg.ChannelRecord = false
	cfg.LogWriter = nil
	out, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: canonical config: %w", err)
	}
	return out, nil
}
