package lint

import (
	"path/filepath"
	"testing"
)

func TestFloatOrderBad(t *testing.T) {
	diags := runRule(t, FloatOrder{}, filepath.Join("floatorder", "bad"))
	wantLines(t, diags, "floatorder",
		[]int{8, 16, 24, 32},
		[]string{
			"map iteration order is randomized",
			"map iteration order is randomized",
			"channel receive order follows worker completion",
			"map iteration order is randomized",
		})
}

func TestFloatOrderGood(t *testing.T) {
	wantNone(t, FloatOrder{}, filepath.Join("floatorder", "good"))
}

func TestFloatOrderScope(t *testing.T) {
	cases := []struct {
		rel  string
		want bool
	}{
		{"internal/core", true},
		{"internal/sim", true},
		{"internal/lint", false},
		{"internal/lint/testdata/floatorder/bad", true},
		{"cmd/roadlint", false},
	}
	for _, c := range cases {
		if got := floatOrderInScope(&Package{Rel: c.rel}); got != c.want {
			t.Errorf("floatOrderInScope(%q) = %v, want %v", c.rel, got, c.want)
		}
	}
}
