package main

import (
	"strings"
	"testing"
)

// TestMultiSchemeMergesSwitch pins how -multi merges -switch into -scheme:
// an explicit switch= in the reference stands (a conflicting explicit
// -switch is an error), the flag's policy is added when the reference has
// none, and a scheme without per-process state takes no policy unless
// -switch was set, which is then an error.
func TestMultiSchemeMergesSwitch(t *testing.T) {
	for _, c := range []struct {
		name, scheme, policy string
		set                  bool
		want, err            string
	}{
		{name: "explicit switch matches -switch", scheme: "lru:switch=pid", policy: "pid", set: true,
			want: "snc-lru:switch=pid"},
		{name: "explicit switch beats the default", scheme: "snc-lru:switch=pid", policy: "flush",
			want: "snc-lru:switch=pid"},
		{name: "explicit switch conflicts with -switch", scheme: "snc-lru:switch=pid", policy: "flush", set: true,
			err: "says switch=pid but -switch says flush"},
		{name: "default added", scheme: "otp-mac:verify=blocking", policy: "flush",
			want: "otp-mac:switch=flush,verify=blocking"},
		{name: "default added to a bare name", scheme: "snc-norepl", policy: "pid", set: true,
			want: "snc-norepl:switch=pid"},
		{name: "no policy for xom by default", scheme: "xom", policy: "flush",
			want: "xom"},
		{name: "-switch set on xom", scheme: "xom", policy: "pid", set: true,
			err: "does not support -switch"},
		{name: "unknown policy", scheme: "snc-lru", policy: "drop",
			err: "drop"},
	} {
		ref, err := multiScheme(c.scheme, c.policy, c.set)
		switch {
		case c.err != "":
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: got %v, %v; want an error containing %q", c.name, ref, err, c.err)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case ref.Canonical() != c.want:
			t.Errorf("%s: got %s, want %s", c.name, ref, c.want)
		}
	}
}
