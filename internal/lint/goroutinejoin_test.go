package lint

import (
	"path/filepath"
	"testing"
)

func TestGoroutineJoinBad(t *testing.T) {
	diags := runRule(t, GoroutineJoin{}, filepath.Join("goroutinejoin", "bad"))
	wantLines(t, diags, "goroutinejoin",
		[]int{8, 14, 21, 36, 49},
		[]string{
			"no provable join",
			"no join evidence",
			"captures loop variable item",
			"writes captured total",
			"writes captured n",
		})
}

func TestGoroutineJoinGood(t *testing.T) {
	wantNone(t, GoroutineJoin{}, filepath.Join("goroutinejoin", "good"))
}

func TestGoroutineJoinScope(t *testing.T) {
	cases := []struct {
		rel  string
		want bool
	}{
		{"internal/core", true},
		{"internal/campaign/store", true},
		{"internal/ml", true},
		{"cmd/roadlint", true},
		{"internal/trace", false},
		{"internal/lint", false},
		{"internal/lint/testdata/goroutinejoin/bad", true},
	}
	for _, c := range cases {
		if got := inScope(&Package{Rel: c.rel}, goroutineJoinScope); got != c.want {
			t.Errorf("inScope(%q) = %v, want %v", c.rel, got, c.want)
		}
	}
}
