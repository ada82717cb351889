package scale

import (
	"strings"
	"testing"
)

// TestSpecCodecs pins the codec values a spec accepts: the binary wire
// with delta responses off or on, and "" for the binary default, checked
// the way Run and LoadSweep check a spec (defaults, then Validate).
// Anything else, the retired "json" included, fails validation with an
// error that names it.
func TestSpecCodecs(t *testing.T) {
	cases := []struct {
		codec string
		ok    bool
	}{
		{"binary", true},
		{"binary-delta", true},
		{"", true},
		{"json", false},
		{"auto", false},
		{"Binary", false},
	}
	for _, tc := range cases {
		name := tc.codec
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			s := Spec{Name: "codec", Racks: 1, ServersPerRack: 1, Levels: 2, Codec: tc.codec}
			s.defaults()
			err := s.Validate()
			if tc.ok {
				if err != nil {
					t.Fatalf("codec %q: %v", tc.codec, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), `"`+tc.codec+`"`) {
				t.Fatalf("codec %q: err %v, want one naming it", tc.codec, err)
			}
		})
	}
}
