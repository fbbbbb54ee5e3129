package main

import (
	"testing"

	"repro/internal/cliutil"
)

func TestRunProtocols(t *testing.T) {
	cases := [][]string{
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-ideal"},
		{"-protocol", "tag", "-nodes", "120", "-seed", "3", "-ideal"},
		{"-protocol", "ipda", "-nodes", "120", "-seed", "3", "-ideal"},
		{"-protocol", "sdap", "-nodes", "120", "-seed", "3", "-ideal"},
		{"-protocol", "sdap", "-nodes", "120", "-seed", "3", "-polluter", "9", "-delta", "5000"},
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-ideal", "-trace", "10"},
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-count", "-grid"},
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-ideal",
			"-rounds", "3", "-headcrash", "0.2", "-recover"},
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-ideal",
			"-rounds", "2", "-headcrash", "0.2", "-nofailover"},
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-ideal", "-crash", "0.05"},
		{"-protocol", "cluster", "-nodes", "120", "-seed", "3", "-rounds", "2"},
	}
	for _, args := range cases {
		if _, err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-protocol", "bogus"},
		{"-nodes", "1"},
		{"-polluter", "notanumber"},
		{"-protocol", "tag", "-rounds", "3"},
		{"-protocol", "cluster", "-rounds", "0"},
		{"-protocol", "cluster", "-rounds", "70000"},
		{"-protocol", "cluster", "-headcrash", "1.5"},
	}
	for _, args := range cases {
		if _, err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestBadInputsAreUsageErrors sweeps nonsensical flag values: each must be
// rejected upfront as a usage error (exit 2 via cliutil.Exit) before any
// deployment is built — not a panic, not a runtime failure, and never a
// silent misrun.
func TestBadInputsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"one node", []string{"-nodes", "1"}},
		{"negative nodes", []string{"-nodes", "-400"}},
		{"zero field", []string{"-field", "0"}},
		{"negative field", []string{"-field", "-400"}},
		{"zero range", []string{"-range", "0"}},
		{"loss of 1", []string{"-loss", "1"}},
		{"negative loss", []string{"-loss", "-0.5"}},
		{"crash above 1", []string{"-crash", "1.01"}},
		{"negative crash", []string{"-crash", "-0.1"}},
		{"headcrash above 1", []string{"-headcrash", "1.5"}},
		{"pc of 1", []string{"-pc", "1"}},
		{"negative pc", []string{"-pc", "-0.2"}},
		{"zero rounds", []string{"-rounds", "0"}},
		{"negative rounds", []string{"-rounds", "-3"}},
		{"rounds above uint16", []string{"-rounds", "70000"}},
		{"rounds on tag", []string{"-protocol", "tag", "-rounds", "3"}},
		{"rounds on sdap", []string{"-protocol", "sdap", "-rounds", "3"}},
		{"negative slices", []string{"-slices", "-1"}},
		{"negative trace cap", []string{"-trace", "-5"}},
		{"unknown protocol", []string{"-protocol", "bogus"}},
		{"bad observe addr", []string{"-observe", "nope"}},
		{"malformed flag value", []string{"-nodes", "many"}},
		{"unknown flag", []string{"-frobnicate"}},
		{"positional junk", []string{"leftover"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := run(tc.args)
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if !cliutil.IsUsage(err) {
				t.Fatalf("want usage error (exit 2), got %T: %v", err, err)
			}
			if fs == nil {
				t.Fatal("no flag set returned for usage message")
			}
		})
	}
}

func TestRunLocalize(t *testing.T) {
	if testing.Short() {
		t.Skip("localization runs several rounds")
	}
	args := []string{"-protocol", "cluster", "-nodes", "200", "-seed", "5",
		"-ideal", "-polluter", "auto", "-delta", "5000", "-localize"}
	if _, err := run(args); err != nil {
		t.Errorf("localize run: %v", err)
	}
}
