package main

import "testing"

// TestCheckHostProcs pins the -hostprocs contract: 0 (the default) and
// positive widths are accepted, and a negative value is a usage error
// instead of being silently ignored.
func TestCheckHostProcs(t *testing.T) {
	cases := []struct {
		n       int
		wantErr bool
	}{
		{0, false},
		{1, false},
		{4, false},
		{-1, true},
		{-3, true},
	}
	for _, c := range cases {
		err := checkHostProcs(c.n)
		if (err != nil) != c.wantErr {
			t.Errorf("checkHostProcs(%d) = %v, want error %v", c.n, err, c.wantErr)
		}
	}
}
