package lint_test

import (
	"strings"
	"testing"

	"ashs/internal/lint"
	"ashs/internal/lint/linttest"
)

func TestDeterminism(t *testing.T)     { linttest.Run(t, lint.Determinism, "determinism") }
func TestObsGuard(t *testing.T)        { linttest.Run(t, lint.ObsGuard, "obsguard") }
func TestAllocDiscipline(t *testing.T) { linttest.Run(t, lint.AllocDiscipline, "allocdiscipline") }
func TestBufDiscipline(t *testing.T)   { linttest.Run(t, lint.BufDiscipline, "bufdiscipline") }

// TestIgnoreDirectives pins the suppression contract: a reasoned
// //lint:ignore directive silences its finding, while a reasonless one
// both fails to suppress and is reported itself.
func TestIgnoreDirectives(t *testing.T) {
	p := linttest.LoadPackage(t, "ignores")
	diags, err := lint.Run(p, []*lint.Analyzer{lint.Determinism})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		for _, d := range diags {
			t.Logf("ashlint/%s: %s: %s", d.Analyzer, p.Fset.Position(d.Pos), d.Message)
		}
		t.Fatalf("got %d diagnostics, want 2", len(diags))
	}
	if diags[0].Analyzer != "ignore" || !strings.Contains(diags[0].Message, "reason") {
		t.Errorf("first diagnostic = ashlint/%s %q, want ashlint/ignore complaining about a missing reason",
			diags[0].Analyzer, diags[0].Message)
	}
	if diags[1].Analyzer != "determinism" {
		t.Errorf("second diagnostic = ashlint/%s %q, want the unsuppressed determinism finding",
			diags[1].Analyzer, diags[1].Message)
	}
}

// TestScopes pins which import paths each analyzer covers, including the
// path-boundary rule (ashs/internal/sim must not match ashs/internal/simx).
func TestScopes(t *testing.T) {
	cases := []struct {
		a    *lint.Analyzer
		path string
		want bool
	}{
		{lint.Determinism, "ashs/internal/sim", true},
		{lint.Determinism, "ashs/internal/bench", true},
		{lint.Determinism, "ashs/internal/netdev", true},
		{lint.Determinism, "ashs/internal/aegis", true},
		{lint.Determinism, "ashs/internal/proto/tcp", true},
		{lint.Determinism, "ashs/internal/proto/http", true},
		{lint.Determinism, "ashs/internal/simx", false},
		{lint.Determinism, "ashs/cmd/ashbench", false},
		{lint.Determinism, "ashs/internal/obs", false},
		{lint.ObsGuard, "ashs/internal/aegis", true},
		{lint.ObsGuard, "ashs/internal/netdev", true},
		{lint.ObsGuard, "ashs/internal/obs", false},
		{lint.AllocDiscipline, "ashs/internal/aegis", true},
		{lint.AllocDiscipline, "ashs/internal/crl", true},
		{lint.AllocDiscipline, "ashs/cmd/ashbench", true},
		{lint.AllocDiscipline, "ashs/internal/bench", false},
		{lint.AllocDiscipline, "ashs/examples/remoteincrement", false},
		{lint.BufDiscipline, "ashs/internal/netdev", true},
		{lint.BufDiscipline, "ashs/internal/aegis", true},
		{lint.BufDiscipline, "ashs/internal/flyweight", true},
		{lint.BufDiscipline, "ashs/internal/fault", true},
		{lint.BufDiscipline, "ashs/internal/proto/tcp", true},
		{lint.BufDiscipline, "ashs/internal/bench", true},
		{lint.BufDiscipline, "ashs/internal/sim", false},
		{lint.BufDiscipline, "ashs/cmd/ashbench", false},
	}
	for _, c := range cases {
		if got := c.a.Scope(c.path); got != c.want {
			t.Errorf("%s.Scope(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}
