package main

import (
	"testing"

	"ashs/internal/lint"
)

func TestActiveFilters(t *testing.T) {
	if got := active("ashs/internal/proto/tcp"); len(got) != len(lint.All) {
		t.Errorf("proto/tcp should be in every analyzer's scope, got %d of %d", len(got), len(lint.All))
	}
	for _, a := range active("ashs/internal/obs") {
		if a.Name == "obsguard" {
			t.Error("obsguard must not apply to internal/obs itself")
		}
	}
}

// TestStandaloneList exercises the -list path.
func TestStandaloneList(t *testing.T) {
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("ashlint -list exited %d, want 0", code)
	}
}

// TestStandaloneCleanPackage runs the real loader over a package that is
// in-scope for every analyzer and known clean; this is the same path
// ci.sh gates with `go run ./cmd/ashlint ./...`.
func TestStandaloneCleanPackage(t *testing.T) {
	if code := run([]string{"internal/obs"}); code != 0 {
		t.Fatalf("ashlint internal/obs exited %d, want 0 (package should be clean)", code)
	}
}
