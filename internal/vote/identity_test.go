package vote

import (
	"reflect"
	"testing"

	"vigil/internal/topology"
)

func TestCanonicalLess(t *testing.T) {
	mk := func(a topology.HostID, e, s int32) Report { return Report{Src: a, Epoch: e, Seq: s} }
	cases := []struct {
		a, b Report
		want bool
	}{
		{mk(1, 0, 0), mk(2, 0, 0), true},  // agent dominates
		{mk(2, 0, 9), mk(1, 5, 0), false}, // agent dominates epoch
		{mk(1, 1, 9), mk(1, 2, 0), true},  // epoch dominates seq
		{mk(1, 1, 3), mk(1, 1, 4), true},  // seq breaks the tie
		{mk(1, 1, 4), mk(1, 1, 4), false}, // equal is not less
	}
	for i, c := range cases {
		if got := CanonicalLess(c.a, c.b); got != c.want {
			t.Errorf("case %d: CanonicalLess(%+v, %+v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestSortCanonical(t *testing.T) {
	mk := func(a topology.HostID, e, s int32) Report { return Report{Src: a, Epoch: e, Seq: s} }
	in := []Report{mk(2, 0, 1), mk(0, 1, 0), mk(2, 0, 0), mk(0, 0, 2), mk(1, 0, 0)}
	want := []Report{mk(0, 0, 2), mk(0, 1, 0), mk(1, 0, 0), mk(2, 0, 0), mk(2, 0, 1)}
	SortCanonical(in)
	if !reflect.DeepEqual(in, want) {
		t.Fatalf("SortCanonical: got %v, want %v", in, want)
	}
	// Already-canonical input must come through untouched (the fast path).
	again := append([]Report(nil), want...)
	SortCanonical(again)
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("SortCanonical reordered a canonical slice")
	}
	SortCanonical(nil) // must not panic
}
