package lint

import "testing"

// TestSuppression runs the full suite over a fixture whose waivers
// exercise the //lint:pdm-allow escape hatch: same-line and
// line-above placement, multi-rule lists, and the wrong-rule case
// where the diagnostic must survive.
func TestSuppression(t *testing.T) {
	runFixtureSuite(t, All(), "suppress/a")
}

func TestParseAllow(t *testing.T) {
	cases := []struct {
		text  string
		rules []string
	}{
		{"//lint:pdm-allow iocharge: reason", []string{"iocharge"}},
		{"//lint:pdm-allow guardedby,iocharge: two rules", []string{"guardedby", "iocharge"}},
		{"//lint:pdm-allow detrand, lockorder: spaced list", []string{"detrand", "lockorder"}},
		{"//lint:pdm-allow: no rule named", nil},
		{"// plain comment", nil},
		{"//lint:ignore SA1000 staticcheck syntax", nil},
	}
	for _, c := range cases {
		got := parseAllow(c.text)
		if len(got) != len(c.rules) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.rules)
			continue
		}
		for i := range got {
			if got[i] != c.rules[i] {
				t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.rules)
				break
			}
		}
	}
}
