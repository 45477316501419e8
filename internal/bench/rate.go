package bench

import (
	"fmt"
	"sync"
	"time"

	"giantsan/internal/interp"
	"giantsan/internal/workload"
)

// RateResult is one SPEC-rate-style measurement: N concurrent copies of a
// program, each in its own simulated address space, as SPEC's rate suite
// runs N process copies.
type RateResult struct {
	Copies  int
	Elapsed time.Duration
	// Throughput is copies per second of wall time.
	Throughput float64
	// Results holds each copy's outcome, in copy order.
	Results []*interp.Result
}

// RateRun executes copies instances of (workload, config) concurrently.
// Each copy owns a full runtime (space, shadow, allocators), so the copies
// interact only through the machine — the same contention profile as
// SPEC's rate mode.
func RateRun(w *workload.Workload, cfg SanConfig, scale, copies int) (RateResult, error) {
	type outcome struct {
		res *interp.Result
		err error
	}
	// Compile all copies up front so the timed section is execution only.
	execs := make([]*interp.Exec, copies)
	for i := range execs {
		env := newRuntime(cfg, w, scale)
		ex, err := interp.Prepare(w.Build(scale), cfg.Profile, env)
		if err != nil {
			return RateResult{}, err
		}
		execs[i] = ex
	}
	outs := make([]outcome, copies)
	start := time.Now()
	var wg sync.WaitGroup
	for i, ex := range execs {
		wg.Add(1)
		go func(i int, ex *interp.Exec) {
			defer wg.Done()
			res := ex.Run()
			outs[i] = outcome{res: res}
			if res.Errors.Total() != 0 {
				outs[i].err = fmt.Errorf("copy %d reported %d errors", i, res.Errors.Total())
			}
		}(i, ex)
	}
	wg.Wait()
	elapsed := time.Since(start)
	res := RateResult{
		Copies:     copies,
		Elapsed:    elapsed,
		Throughput: float64(copies) / elapsed.Seconds(),
		Results:    make([]*interp.Result, copies),
	}
	for i, o := range outs {
		res.Results[i] = o.res
	}
	// The run completed and was measured even if copies reported errors:
	// return the measurement alongside the failure. outs is scanned in
	// copy order, so the reported error is always the lowest-index
	// failing copy, independent of goroutine completion order.
	for _, o := range outs {
		if o.err != nil {
			return res, o.err
		}
	}
	return res, nil
}
