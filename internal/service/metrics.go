package service

import (
	"fmt"
	"io"
	"reflect"
	"sort"

	"giantsan/internal/canary"
	"giantsan/internal/san"
)

// Metrics are rendered from an immutable snapshot: the engine's counters
// are read once, completed before started, and the exposition is written
// from that copy, so no family in one scrape can race another. A
// federating front-end (fedmetrics.go) sums its backends' scrapes of this
// exposition into the same family names.

// engineSnapshot is one engine's full metric state at a point in time.
type engineSnapshot struct {
	started, completed, rejected, timedout, panicked, downgraded uint64
	queueDepth                                                   int
	arenas                                                       ArenaStats
	perSan                                                       map[string]san.Stats
	perTier                                                      map[string]uint64
	errKinds                                                     map[string]uint64
	canary                                                       *canary.Counters
	canarySkipped                                                uint64
}

// snapshot captures the engine's metric state. Counters are read completed
// before started so the derived in-flight gauge can never go negative.
func (e *Engine) snapshot() engineSnapshot {
	s := engineSnapshot{queueDepth: e.QueueDepth(), arenas: e.arenas.Stats()}
	s.completed = e.m.completed.Load()
	s.started = e.m.started.Load()
	s.rejected = e.m.rejected.Load()
	s.timedout = e.m.timedout.Load()
	s.panicked = e.m.panicked.Load()
	s.downgraded = e.m.downgraded.Load()
	if cs, ok := e.CanarySnapshot(); ok {
		s.canary = &cs
		s.canarySkipped = e.canarySkipped.Load()
	}
	e.mu.Lock()
	s.perSan = make(map[string]san.Stats, len(e.perSan))
	for l, st := range e.perSan {
		s.perSan[l] = *st
	}
	s.perTier = make(map[string]uint64, len(e.perTier))
	for n, v := range e.perTier {
		s.perTier[n] = v
	}
	s.errKinds = make(map[string]uint64, len(e.errKinds))
	for k, v := range e.errKinds {
		s.errKinds[k] = v
	}
	e.mu.Unlock()
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteMetrics renders the engine's state in Prometheus text exposition
// format: service counters (sessions, queue, arena pool), the sanitizer
// work counters aggregated per sanitizer label, and the error-report
// totals per report kind. Output order is deterministic (struct field
// order, sorted label values) so scrapes diff cleanly.
func (e *Engine) WriteMetrics(w io.Writer) {
	s := e.snapshot()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("gsan_sessions_started_total", "Sessions that began executing.", s.started)
	counter("gsan_sessions_completed_total", "Sessions that finished (any status).", s.completed)
	counter("gsan_sessions_rejected_total", "Sessions refused by admission control.", s.rejected)
	counter("gsan_sessions_timedout_total", "Sessions whose virtual-clock bill exceeded their deadline.", s.timedout)
	counter("gsan_sessions_panicked_total", "Sessions that panicked and were isolated.", s.panicked)
	counter("gsan_sessions_downgraded_total", "Tiered sessions admission control moved to a cheaper rung.", s.downgraded)
	gauge("gsan_sessions_inflight", "Sessions started but not yet finished.", int(s.started-s.completed))
	gauge("gsan_queue_depth", "Admitted sessions waiting for a worker.", s.queueDepth)

	counter("gsan_arena_pool_hits_total", "Sessions served by a recycled arena.", s.arenas.Hits)
	counter("gsan_arena_pool_misses_total", "Sessions that built a fresh arena.", s.arenas.Misses)
	counter("gsan_arena_pool_dropped_total", "Arenas discarded instead of shelved (suspect state or over-capacity).", s.arenas.Dropped)
	gauge("gsan_arena_pool_size", "Idle arenas currently shelved.", s.arenas.Size)
	gauge("gsan_arena_pool_keys", "Live configuration shelves in the arena pool.", s.arenas.Keys)

	if cs := s.canary; cs != nil {
		counter("gsan_canary_runs_total", "Differential canary runs completed.", cs.Runs)
		counter("gsan_canary_discrepancies_total", "Canary runs whose fast/reference/oracle legs diverged.", cs.Discrepancies)
		counter("gsan_canary_shrink_steps_total", "Successful ddmin reduction steps across all shrinks.", cs.ShrinkSteps)
		counter("gsan_canary_shrink_replays_total", "Triple replays spent on shrink candidates.", cs.ShrinkReplays)
		counter("gsan_canary_artifacts_written_total", "Divergence repro artifacts persisted to the canary dir.", cs.ArtifactsWritten)
		counter("gsan_canary_failures_total", "Canary runs that failed for infrastructure reasons.", cs.Failures)
		counter("gsan_canary_skipped_total", "Canary attempts skipped for lack of spare capacity.", s.canarySkipped)
		gauge("gsan_canary_min_repro_events", "Event count of the most recent shrunk reproduction.", int(cs.MinReproEvents))
	}

	fmt.Fprintf(w, "# HELP gsan_sessions_tier_total Completed sessions per resolved sanitization tier.\n# TYPE gsan_sessions_tier_total counter\n")
	for _, n := range sortedKeys(s.perTier) {
		fmt.Fprintf(w, "gsan_sessions_tier_total{tier=%q} %d\n", n, s.perTier[n])
	}

	// One metric family per san.Stats counter, named after its frozen
	// JSON tag (the same wire schema the session responses use), with one
	// sample per sanitizer label.
	labels := sortedKeys(s.perSan)
	st := reflect.TypeOf(san.Stats{})
	for i := 0; i < st.NumField(); i++ {
		tag := st.Field(i).Tag.Get("json")
		name := "gsan_san_" + tag + "_total"
		fmt.Fprintf(w, "# HELP %s Aggregated san.Stats.%s across completed sessions.\n# TYPE %s counter\n",
			name, st.Field(i).Name, name)
		for _, l := range labels {
			v := reflect.ValueOf(s.perSan[l]).Field(i).Uint()
			fmt.Fprintf(w, "%s{sanitizer=%q} %d\n", name, l, v)
		}
	}

	fmt.Fprintf(w, "# HELP gsan_error_reports_total Memory-error reports raised by sessions, by kind.\n# TYPE gsan_error_reports_total counter\n")
	for _, k := range sortedKeys(s.errKinds) {
		fmt.Fprintf(w, "gsan_error_reports_total{kind=%q} %d\n", k, s.errKinds[k])
	}
}
