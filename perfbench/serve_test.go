package main

import (
	"testing"
	"time"
)

// A run past its deadline finishes the round in progress and starts no
// other, so its failed share stays that of whole rounds.
func TestRoundGateStopsAtRoundBoundary(t *testing.T) {
	g := &roundGate{n: 12, roundLen: 4, deadline: time.Now().Add(time.Hour)}
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, g.take())
	}
	g.deadline = time.Now().Add(-time.Second)
	for i := 0; i < 4; i++ {
		got = append(got, g.take())
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, -1, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("indexes %v, want %v", got, want)
		}
	}
	all := &roundGate{n: 3, roundLen: 3, deadline: time.Now().Add(time.Hour)}
	for want := 0; want < 3; want++ {
		if i := all.take(); i != want {
			t.Fatalf("take %d, want %d", i, want)
		}
	}
	if i := all.take(); i != -1 {
		t.Fatalf("take past the end: %d", i)
	}
}
