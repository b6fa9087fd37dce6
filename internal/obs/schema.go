package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Structural schema validation for the two JSON artifacts the layer
// emits. The "schema" is enforced the zero-dependency way: strict
// decoding (unknown fields rejected) into the exporting types plus
// explicit invariant checks, so a CI job can assert that -trace-out
// and -metrics-json files are well-formed without a JSON Schema
// engine.

// ValidateTraceJSON checks that data is a well-formed Chrome
// trace-event file as WriteJSON emits it: an object with a
// traceEvents array of complete (ph="X") events carrying non-empty
// names and non-negative timestamps/durations/lane ids.
func ValidateTraceJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f traceFile
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	if f.TraceEvents == nil {
		return fmt.Errorf("obs: trace: missing traceEvents array")
	}
	if f.DisplayTimeUnit != "ms" && f.DisplayTimeUnit != "ns" {
		return fmt.Errorf("obs: trace: displayTimeUnit %q, want ms or ns", f.DisplayTimeUnit)
	}
	for i, ev := range f.TraceEvents {
		switch {
		case ev.Name == "":
			return fmt.Errorf("obs: trace: event %d has no name", i)
		case ev.Ph != "X":
			return fmt.Errorf("obs: trace: event %d (%s) has phase %q, want X", i, ev.Name, ev.Ph)
		case ev.TS < 0 || ev.Dur < 0:
			return fmt.Errorf("obs: trace: event %d (%s) has negative time", i, ev.Name)
		case ev.PID < 0 || ev.TID < 0:
			return fmt.Errorf("obs: trace: event %d (%s) has negative pid/tid", i, ev.Name)
		}
	}
	return nil
}

// ValidateMetricsJSON checks that data is a well-formed metrics
// snapshot: strictly decoded, with the three instrument maps present,
// and valid under the snapshot schema (validate).
func ValidateMetricsJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var snap MetricsSnapshot
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		return fmt.Errorf("obs: metrics: missing counters/gauges/histograms map")
	}
	if err := snap.validate(); err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	return nil
}

// validate is the one schema both metrics exports are checked against:
// counters and histogram counts non-negative, bucket bounds strictly
// ascending, exactly one +Inf (null-bound) bucket and that one last, and
// each histogram's count equal to the sum of its bucket counts.
func (s MetricsSnapshot) validate() error {
	for name, v := range s.Counters {
		if v < 0 {
			return fmt.Errorf("counter %s is negative (%d)", name, v)
		}
	}
	for name, h := range s.Histograms {
		if h.Count < 0 {
			return fmt.Errorf("histogram %s has negative count", name)
		}
		if len(h.Buckets) == 0 {
			return fmt.Errorf("histogram %s has no buckets", name)
		}
		var total int64
		last := len(h.Buckets) - 1
		for i, b := range h.Buckets {
			switch {
			case b.Count < 0:
				return fmt.Errorf("histogram %s bucket %d has negative count", name, i)
			case b.LE == nil && i != last:
				return fmt.Errorf("histogram %s has a non-final +Inf bucket", name)
			case b.LE != nil && i == last:
				return fmt.Errorf("histogram %s lacks the final +Inf bucket", name)
			case b.LE != nil && i > 0 && *b.LE <= *h.Buckets[i-1].LE:
				return fmt.Errorf("histogram %s bucket bounds not ascending", name)
			}
			total += b.Count
		}
		if total != h.Count {
			return fmt.Errorf("histogram %s bucket counts sum to %d, want %d", name, total, h.Count)
		}
	}
	return nil
}
