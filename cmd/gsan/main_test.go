package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestConflictingFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the stderr diagnostic
	}{
		{"replay+record", []string{"-replay", "x.trace", "-record", "y.trace"}, "mutually exclusive"},
		{"list+record", []string{"-list", "-record", "y.trace"}, "-list cannot be combined"},
		{"list+replay", []string{"-list", "-replay", "x.trace"}, "-list cannot be combined"},
		{"list+serve", []string{"-list", "-serve", ":0"}, "-list cannot be combined"},
		{"serve+replay", []string{"-serve", ":0", "-replay", "x.trace"}, "pick one mode"},
		{"federate-no-serve", []string{"-federate", "http://127.0.0.1:1"}, "-federate requires -serve"},
		{"federate+canary", []string{"-serve", ":0", "-serve-canary", "-federate", "http://127.0.0.1:1"}, "mutually exclusive"},
		{"federate-empty", []string{"-serve", ":0", "-federate", " , "}, "at least one backend URL"},
	} {
		code, _, errs := runCLI(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
		if !strings.Contains(errs, tc.want) {
			t.Errorf("%s: stderr %q does not explain the conflict (want %q)", tc.name, errs, tc.want)
		}
	}
}

func TestListMode(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "505.mcf_r") {
		t.Fatalf("-list output missing workloads:\n%s", out)
	}
}

func TestUnknownInputs(t *testing.T) {
	if code, _, errs := runCLI(t, "-workload", "999.nope"); code != 2 || !strings.Contains(errs, "unknown workload") {
		t.Fatalf("unknown workload: exit %d, stderr %q", code, errs)
	}
	if code, _, errs := runCLI(t, "-workload", "523.xalancbmk_r", "-san", "valgrind"); code != 2 || !strings.Contains(errs, "unknown sanitizer") {
		t.Fatalf("unknown sanitizer: exit %d, stderr %q", code, errs)
	}
	if code, _, _ := runCLI(t, "-bogusflag"); code != 2 {
		t.Fatalf("bogus flag: exit %d, want 2", code)
	}
}

func TestRunRecordReplayRoundTrip(t *testing.T) {
	// A clean run prints its counters and exits 0.
	code, out, _ := runCLI(t, "-workload", "523.xalancbmk_r", "-san", "giantsan")
	if code != 0 || !strings.Contains(out, "errors     0") {
		t.Fatalf("run: exit %d\n%s", code, out)
	}

	// Record, then replay the trace under a different sanitizer.
	path := filepath.Join(t.TempDir(), "run.trace")
	code, out, errs := runCLI(t, "-workload", "523.xalancbmk_r", "-record", path)
	if code != 0 || !strings.Contains(out, "recorded 523.xalancbmk_r") {
		t.Fatalf("record: exit %d\nstdout %s\nstderr %s", code, out, errs)
	}
	code, out, errs = runCLI(t, "-replay", path, "-san", "asan")
	if code != 0 || !strings.Contains(out, "replayed") {
		t.Fatalf("replay: exit %d\nstdout %s\nstderr %s", code, out, errs)
	}
	if !strings.Contains(out, "0 errors") {
		t.Fatalf("replay of clean run reported errors:\n%s", out)
	}
}
