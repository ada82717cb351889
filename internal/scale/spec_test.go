package scale

import (
	"os"
	"path/filepath"
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

// TestLoadSweepFiles: every committed sweep file loads, and a field the
// Spec does not know fails the load with an error naming it — so a saved
// sweep asking for the retired "pipeline" mode cannot silently run
// barrier periods instead.
func TestLoadSweepFiles(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "cmd", "scalesim", "sweeps", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no committed sweep files found")
	}
	for _, f := range files {
		sw, err := LoadSweep(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(sw.Runs) == 0 {
			t.Errorf("%s: no runs", f)
		}
	}

	for name, body := range map[string]string{
		"pipeline": `{"name": "old", "runs": [{"name": "p", "racks": 1, "servers_per_rack": 1, "levels": 2, "pipeline": true}]}`,
		"trailing": `{"name": "old", "runs": []} {}`,
	} {
		path := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSweep(path)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s sweep: err %v, want one naming %q", name, err, name)
		}
	}
}
