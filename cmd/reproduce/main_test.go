package main

import (
	"bytes"
	"strings"
	"testing"

	"gicnet/internal/experiments"
)

// A typo in -only must fail before any work instead of printing nothing
// and exiting 0, and the error must name the ids that do exist.
func TestOnlyRejectsUnknownIDs(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-only", "fig99,fig3,ext-bandng"}, &out)
	if err == nil {
		t.Fatal("unknown -only ids were accepted")
	}
	for _, want := range []string{"fig99", "ext-bandng", strings.Join(experiments.IDs(), ",")} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed %d bytes before refusing", out.Len())
	}
}
