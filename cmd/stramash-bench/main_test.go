package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"testing"
)

// TestHostprocsIsUnknownFlag pins that -parallel is the only width knob:
// the former row-pool flag -hostprocs is now a usage error (exit 2). The
// test re-runs its own binary with the command line after "main", which
// the child hands to main.
func TestHostprocsIsUnknownFlag(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == "main" {
		os.Args = args
		flag.CommandLine = flag.NewFlagSet(args[0], flag.ExitOnError)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestHostprocsIsUnknownFlag$", "main", "-hostprocs", "4", "-list")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("stramash-bench -hostprocs 4 = %v, want exit status 2\n%s", err, out)
	}
}
