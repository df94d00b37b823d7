package main

import "testing"

// TestSignificanceTags pins the comparison log's tags: the test that found
// a change significant, and the below-threshold tag for a significant
// change smaller than negligibleChange in either direction.
func TestSignificanceTags(t *testing.T) {
	for _, tc := range []struct {
		change        float64
		welch, paired bool
		want          string
	}{
		{0.05, false, false, ""},
		{0.00005, false, false, ""},
		{0.05, true, true, " (significant)"},
		{-0.05, false, true, " (significant paired)"},
		{0.0001, true, false, " (significant, below 0.1%)"},
		{-0.0009, false, true, " (significant, below 0.1%)"},
		{-negligibleChange, false, true, " (significant paired)"},
	} {
		if got := significance(tc.change, tc.welch, tc.paired); got != tc.want {
			t.Errorf("significance(%v, %v, %v) = %q, want %q", tc.change, tc.welch, tc.paired, got, tc.want)
		}
	}
}
