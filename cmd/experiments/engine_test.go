package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestEngineFlag drives the built command: every engine name
// experiments.ParseEngineKind accepts renders a tiny figure, an unknown name
// exits 2 before any simulation starts, and the retired -fast alias is an
// unknown flag.
func TestEngineFlag(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cases := []struct {
		name       string
		args       []string
		wantExit   int
		wantStderr string // substring of stderr on failure
	}{
		{name: "fixed", args: []string{"-engine", "fixed"}},
		{name: "event", args: []string{"-engine", "event"}},
		{name: "lockstep", args: []string{"-engine", "lockstep"}},
		{name: "empty", args: []string{"-engine", ""}},
		{name: "unknown", args: []string{"-engine", "bogus"}, wantExit: 2, wantStderr: `unknown engine "bogus"`},
		{name: "fast is unknown", args: []string{"-fast"}, wantExit: 2, wantStderr: "flag provided but not defined: -fast"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// -progress logs every executed run to stderr, so a failure
			// with no "[run " line never reached a simulation.
			args := append([]string{"-fig", "3", "-events", "2", "-progress"}, tc.args...)
			cmd := exec.Command(bin, args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			exit := 0
			if err := cmd.Run(); err != nil {
				var ee *exec.ExitError
				if !errors.As(err, &ee) {
					t.Fatal(err)
				}
				exit = ee.ExitCode()
			}
			if exit != tc.wantExit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", exit, tc.wantExit, stderr.String())
			}
			ran := strings.Contains(stderr.String(), "[run ")
			if tc.wantExit == 0 {
				if !ran || !strings.Contains(stdout.String(), "[sweep:") {
					t.Fatalf("accepted engine rendered no sweep; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
				}
				return
			}
			if ran || stdout.Len() != 0 {
				t.Errorf("rejected flags still simulated; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}
