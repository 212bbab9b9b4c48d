package shard

import (
	"reflect"
	"strings"
	"testing"

	"dcstream/internal/aligned"
	"dcstream/internal/center"
	"dcstream/internal/transport"
	"dcstream/internal/unaligned"
)

// goldenEnvelope sets every WindowReport field, with one empty slice
// (RetiredEpochs) and one nil slice (WeightTrace), which JSON writes as []
// and null.
func goldenEnvelope() Envelope {
	return Envelope{Shard: 2, JournalDegraded: true, HeldEpochs: 1, Report: center.WindowReport{
		Epoch: 9, Routers: 5, Degraded: true, MissingRouters: []int{3}, ExcludedRouters: []int{4},
		Shed: true, ShedDigests: 4, RejectedDigests: 6,
		SpanStart: 7, SpanEpochs: []int{7, 8, 9}, RetiredEpochs: []int{},
		Aligned: &center.AlignedOutcome{Routers: 4, RouterIDs: []int{0, 2},
			Detection: aligned.Detection{Found: true, Rows: []int{0, 1}, CoreCols: []int{5},
				Cols: []int{5, 11}, Iterations: 2, WeightTrace: nil}},
		Unaligned: &center.UnalignedOutcome{Vertices: 20, Routers: []int{1},
			ER:              unaligned.ERTestResult{LargestComponent: 12, Threshold: 10, PatternDetected: true},
			PatternVertices: []unaligned.Vertex{{RouterID: 1, Group: 3}}},
	}}
}

// goldenPayload is goldenEnvelope on the wire. The envelope is the ABI
// between shards and their coordinator: a change that moves a byte of it
// needs every shard and coordinator upgraded together. Change it only on
// purpose, and say so.
const goldenPayload = `{"shard":2,"journal_degraded":true,"held_epochs":1,"report":{` +
	`"Epoch":9,"Routers":5,"Degraded":true,"MissingRouters":[3],"ExcludedRouters":[4],` +
	`"Shed":true,"ShedDigests":4,"RejectedDigests":6,` +
	`"SpanStart":7,"SpanEpochs":[7,8,9],"RetiredEpochs":[],` +
	`"Aligned":{"Routers":4,"Detection":{"Found":true,"Rows":[0,1],"CoreCols":[5],` +
	`"Cols":[5,11],"Iterations":2,"WeightTrace":null},"RouterIDs":[0,2]},` +
	`"Unaligned":{"Vertices":20,"ER":{"LargestComponent":12,"Threshold":10,"PatternDetected":true},` +
	`"PatternVertices":[{"RouterID":1,"Group":3}],"Routers":[1]}}}`

// TestEnvelopeGolden: EncodeReport writes exactly the committed bytes, and
// DecodeReport turns them back into the envelope, nil and empty slices
// included. A WindowReport field the golden leaves unset fails the test, so a
// new field cannot join the ABI unpinned.
func TestEnvelopeGolden(t *testing.T) {
	env := goldenEnvelope()
	rv := reflect.ValueOf(env.Report)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("the golden envelope leaves WindowReport.%s unset", rv.Type().Field(i).Name)
		}
	}
	m, err := EncodeReport(env)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(m.Payload); got != goldenPayload {
		t.Fatalf("EncodeReport wrote\n%s\nwant\n%s", got, goldenPayload)
	}
	back, err := DecodeReport(transport.Report{Payload: []byte(goldenPayload)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, env) {
		t.Fatalf("DecodeReport gave\n%+v\nwant\n%+v", back, env)
	}
	// ExcludedRouters is omitted when empty, so an envelope without it keeps
	// the bytes it had before the field existed.
	env.Report.ExcludedRouters = nil
	if m, err = EncodeReport(env); err != nil {
		t.Fatal(err)
	}
	if got, want := string(m.Payload), strings.Replace(goldenPayload, `"ExcludedRouters":[4],`, "", 1); got != want {
		t.Fatalf("EncodeReport without ExcludedRouters wrote\n%s\nwant\n%s", got, want)
	}
}

// FuzzDecodeReport: whatever DecodeReport accepts, EncodeReport writes back
// into an envelope that decodes equal — the coordinator merges exactly what
// the shard reported.
func FuzzDecodeReport(f *testing.F) {
	f.Add([]byte(goldenPayload))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"shard":-1,"report":{"Epoch":-5,"SpanEpochs":null,"Aligned":null}}`))
	f.Add([]byte(`{"report":{"Unaligned":{"PatternVertices":[]},"MissingRouters":[]}}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		env, err := DecodeReport(transport.Report{Payload: payload})
		if err != nil {
			return
		}
		m, err := EncodeReport(env)
		if err != nil {
			t.Fatalf("decoded envelope does not encode: %v", err)
		}
		again, err := DecodeReport(m)
		if err != nil {
			t.Fatalf("re-encoded envelope does not decode: %v\n%s", err, m.Payload)
		}
		if !reflect.DeepEqual(again, env) {
			t.Fatalf("round trip changed the envelope:\n%+v\n%+v", env, again)
		}
	})
}
