package center

import (
	"errors"
	"reflect"
	"testing"

	"dcstream/internal/transport"
)

func alignedMsg(router, epoch int) transport.Message {
	return transport.AlignedDigest{RouterID: router, Epoch: epoch, Bitmap: smallBitmap(uint64(100*epoch + router))}
}

func unalignedMsg(router, epoch int) transport.Message {
	return transport.UnalignedDigest{Epoch: epoch, Digest: newTestUnaligned(router)}
}

func pokedCenter(c *Center) bool {
	select {
	case <-c.Completed():
		return true
	default:
		return false
	}
}

// TestRosterIsOneRegistryPerKind: the registry keeps the newest epoch per
// router and digest kind; the router-level view the quorum gate uses and the
// per-kind roster a window expects are both read off it.
func TestRosterIsOneRegistryPerKind(t *testing.T) {
	c := New(Config{MinRouters: 3, MaxWait: 2, SubsetSize: 64})
	for _, m := range []transport.Message{
		alignedMsg(1, 1), unalignedMsg(1, 1), // both kinds
		alignedMsg(2, 1),   // aligned only
		unalignedMsg(3, 1), // unaligned only
	} {
		c.Ingest(m)
	}
	if _, _, err := c.CloseNext(CloseComplete); pokedCenter(c) || !errors.Is(err, ErrNoCompleteEpoch) {
		t.Fatal("the first epoch opened on an empty registry and must expect nobody")
	}
	c.Ingest(unalignedMsg(1, 2))
	want := []RouterStatus{
		{RouterID: 1, LastEpoch: 2, LastAligned: 1, LastUnaligned: 2, SendsAligned: true, SendsUnaligned: true},
		{RouterID: 2, LastEpoch: 1, LastAligned: 1, SendsAligned: true},
		{RouterID: 3, LastEpoch: 1, LastUnaligned: 1, SendsUnaligned: true},
	}
	if got := c.Routers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry %+v, want %+v", got, want)
	}
	// The router-level view: routers 2 and 3 are live and absent from epoch 2.
	if q := c.Quorum(2); !q.Hold || !reflect.DeepEqual(q.Missing, []int{2, 3}) {
		t.Fatalf("quorum of epoch 2: %+v, want a hold on routers 2 and 3", q)
	}
	// The per-kind view: epoch 2 waits for four digests, not three routers.
	for i, m := range []transport.Message{alignedMsg(2, 2), unalignedMsg(3, 2)} {
		c.Ingest(m)
		if pokedCenter(c) {
			t.Fatalf("poked after digest %d of epoch 2: every router has reported, router 1's aligned digest has not", i+2)
		}
	}
	c.Ingest(alignedMsg(1, 2))
	if !pokedCenter(c) {
		t.Fatal("no poke when epoch 2's last expected digest was stored")
	}
	// Epoch 1 expected nobody, never completes, and is ahead in line: the
	// wake closes it as superseded before the fast path closes epoch 2.
	for _, want := range []CloseCause{CloseSuperseded, CloseComplete} {
		if rep, cause, err := c.CloseNext(CloseComplete); err != nil || cause != want {
			t.Fatalf("the wake closed epoch %d by %v (%v), want %v", rep.Epoch, cause, err, want)
		}
	}
	// A kind a router stopped sending leaves the roster after MaxWait epochs;
	// the router stays live through its other kind.
	for e := 3; e <= 5; e++ {
		for _, m := range []transport.Message{unalignedMsg(1, e), alignedMsg(2, e), unalignedMsg(3, e)} {
			c.Ingest(m)
		}
		if poked := pokedCenter(c); poked != (e == 5) {
			t.Fatalf("epoch %d: poked %v; router 1's aligned kind (last stamped in epoch 2) is expected through epoch 4 only", e, poked)
		}
	}
}
