package main

import (
	"strings"
	"testing"
)

// A typo in -only must fail instead of running no check and passing.
func TestOnlyRejectsUnknownLayers(t *testing.T) {
	err := run([]string{"-only", "gloden"})
	if err == nil {
		t.Fatal("unknown -only layer was accepted")
	}
	for _, want := range []string{"gloden", "golden,invariants,replay"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
