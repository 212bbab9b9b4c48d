package bitvec

import "testing"

func TestNewArenaIsolation(t *testing.T) {
	cols := NewArena(5, 130)
	if len(cols) != 5 {
		t.Fatalf("arena size %d", len(cols))
	}
	for i, c := range cols {
		if c.Len() != 130 {
			t.Fatalf("col %d length %d", i, c.Len())
		}
	}
	// Saturate one column; its neighbors must stay empty even in the words
	// adjacent inside the shared backing array.
	for i := 0; i < 130; i++ {
		cols[2].Set(i)
	}
	for i, c := range cols {
		want := 0
		if i == 2 {
			want = 130
		}
		if c.OnesCount() != want {
			t.Fatalf("col %d weight %d, want %d", i, c.OnesCount(), want)
		}
	}
	if v := NewArena(0, 64); len(v) != 0 {
		t.Fatalf("empty arena not empty")
	}
}
