package main

import (
	"strings"
	"testing"
)

func TestModeFlagFollowsDispatchOrder(t *testing.T) {
	for _, tc := range []struct {
		fileIO, prod     bool
		tenants, cluster int
		want             string
	}{
		{false, false, 0, 0, ""},
		{true, true, 2, 2, "-fileio"},
		{false, true, 2, 2, "-prod"},
		{false, false, 2, 2, "-tenants"},
		{false, false, 0, 2, "-cluster"},
	} {
		if got := modeFlag(tc.fileIO, tc.prod, tc.tenants, tc.cluster); got != tc.want {
			t.Errorf("modeFlag(%v, %v, %d, %d) = %q, want %q",
				tc.fileIO, tc.prod, tc.tenants, tc.cluster, got, tc.want)
		}
	}
}

func TestCheckTraceFlags(t *testing.T) {
	for _, tc := range []struct {
		mode, traceOut string
		summary        bool
		wantFlag       string // "" when the combination is valid
	}{
		{"", "t.json", true, ""},
		{"-prod", "", false, ""},
		{"-prod", "t.json", false, "-trace "},
		{"-cluster", "", true, "-trace-summary"},
		{"-fileio", "t.json", true, "-trace "},
		{"-tenants", "", true, "-trace-summary"},
	} {
		err := checkTraceFlags(tc.mode, tc.traceOut, tc.summary)
		switch {
		case tc.wantFlag == "" && err != nil:
			t.Errorf("%s -trace=%q -trace-summary=%v: unexpected error %v", tc.mode, tc.traceOut, tc.summary, err)
		case tc.wantFlag != "" && err == nil:
			t.Errorf("%s -trace=%q -trace-summary=%v: accepted, want a usage error", tc.mode, tc.traceOut, tc.summary)
		case err != nil && (!strings.HasPrefix(err.Error(), tc.wantFlag) || !strings.Contains(err.Error(), tc.mode)):
			t.Errorf("%s: error %q does not name both %s and %s", tc.mode, err, strings.TrimSpace(tc.wantFlag), tc.mode)
		}
	}
}
