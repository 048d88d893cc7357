package main

import "testing"

func TestSplitColon(t *testing.T) {
	cases := []struct {
		in   string
		a, b string
		ok   bool
	}{
		{"user:pass", "user", "pass", true},
		{"a:b:c", "a", "b:c", true},
		{"nopass:", "", "", false},
		{":nouser", "", "", false},
		{"nocolon", "", "", false},
		{"", "", "", false},
	}
	for _, tc := range cases {
		a, b, ok := splitColon(tc.in)
		if ok != tc.ok || (ok && (a != tc.a || b != tc.b)) {
			t.Errorf("splitColon(%q) = %q, %q, %v; want %q, %q, %v", tc.in, a, b, ok, tc.a, tc.b, tc.ok)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("/no/such/config.json", "", "pack", "info", "", "", "", "", "", false); err == nil {
		t.Error("missing config accepted")
	}
	if err := run("", "", "nonsense-policy", "info", "", "", "", "", "", false); err == nil {
		t.Error("bad policy accepted")
	}
	if err := run("", "", "pack", "chatty", "", "", "", "", "", false); err == nil {
		t.Error("bad log level accepted")
	}
	if err := run("", "127.0.0.1:0", "pack", "off", "missing-colon", "", "", "", "", false); err == nil {
		t.Error("malformed -admin accepted")
	}
	if err := run("", "", "pack", "off", "", "", "sometimes", "", "", false); err == nil {
		t.Error("bad fsync policy accepted")
	}
	if err := run("", "", "pack", "off", "", "", "", "", "fastest", false); err == nil {
		t.Error("bad collectives algorithm accepted")
	}
}
