package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the real main instead of the tests when the process is
// a child started by runMain.
func TestMain(m *testing.M) {
	if os.Getenv("DBSENSE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// resetFlags restores every dbsense flag to its default between cases.
func resetFlags(t *testing.T) {
	t.Helper()
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the test binary's own flags
		}
		if err := f.Value.Set(f.DefValue); err != nil {
			t.Fatalf("reset -%s: %v", f.Name, err)
		}
	})
}

func TestParseCommand(t *testing.T) {
	cases := []struct {
		args     string
		wantMode string
		wantExp  string
		wantErr  string
	}{
		{args: "run fig2cores -quick", wantMode: "run", wantExp: "fig2cores"},
		{args: "run -quick -workload tpch fig2cores", wantMode: "run", wantExp: "fig2cores"},
		{args: "run recovery -faults", wantMode: "run", wantExp: "recovery"},
		{args: "run trace -trace 1", wantMode: "run", wantExp: "trace"},
		{args: "run trace -trace 22", wantMode: "run", wantExp: "trace"},
		{args: "serve -rate 8 -storm", wantMode: "serve"},
		{args: "list", wantMode: "list"},
		{args: "", wantErr: "unknown command"},
		{args: "-quick fig2cores", wantErr: `unknown command "-quick"`},
		{args: "fig2cores", wantErr: `unknown command "fig2cores"`},
		{args: "run", wantErr: "run takes one experiment name"},
		{args: "run fig5 fig6", wantErr: "run takes one experiment name"},
		{args: "run nosuch", wantErr: `unknown experiment "nosuch"`},
		{args: "serve fig5", wantErr: "serve takes no arguments"},
		{args: "list fig5", wantErr: "list takes no arguments"},
		{args: "run fig5 -emit xml", wantErr: `unknown -emit format "xml"`},
		{args: "run fig2cores -workload oracle", wantErr: `unknown -workload "oracle"`},
		{args: "run recovery", wantErr: "requires -faults"},
		{args: "run chaos -faults -schedule nosuch", wantErr: `unknown -schedule "nosuch"`},
		{args: "run trace -trace 0", wantErr: "-trace 0 out of range"},
		{args: "run trace -trace 23", wantErr: "-trace 23 out of range"},
		{args: "run fig5 -trace 23", wantErr: "-trace 23 out of range"},
	}
	for _, c := range cases {
		t.Run(c.args, func(t *testing.T) {
			resetFlags(t)
			out := filepath.Join(t.TempDir(), "out.jsonl")
			// Every case asks for structured output right after the
			// command; a case's own -emit flag comes later and wins.
			args := strings.Fields(c.args)
			if len(args) > 0 {
				args = append([]string{args[0], "-emit", "json", "-o", out}, args[1:]...)
			}
			mode, exp, err := parseCommand(args)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, c.wantErr)
				}
			} else if err != nil || mode != c.wantMode || exp != c.wantExp {
				t.Fatalf("got (%q, %q, %v), want (%q, %q, nil)", mode, exp, err, c.wantMode, c.wantExp)
			}
			if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("parseCommand touched the -o file: %v", err)
			}
		})
	}
}

// runMain runs main with args in a child process and returns its exit
// status and stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DBSENSE_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUsageErrorsCreateNoOutput checks the binary end to end: a usage
// error exits 2 with the usage text and leaves no -o file behind.
func TestUsageErrorsCreateNoOutput(t *testing.T) {
	for _, args := range []string{
		"run trace -trace 23 -emit json -o %s",
		"run trace -trace 0 -emit json -o %s",
		"-quick fig2cores -emit json -o %s",
		"run fig2cores -quick -workload oracle -emit json -o %s",
	} {
		out := filepath.Join(t.TempDir(), "out.jsonl")
		code, stderr := runMain(t, strings.Fields(strings.Replace(args, "%s", out, 1))...)
		if code != 2 || !strings.Contains(stderr, "usage:") {
			t.Errorf("%s: exit %d, stderr %q; want exit 2 with usage", args, code, stderr)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: -o file exists after a usage error (%v)", args, err)
		}
	}
}
