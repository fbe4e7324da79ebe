package repl

import (
	"encoding/json"
	"testing"

	"cosparse/internal/store"
)

// FuzzReplFrame drives the follower's batch decoder with hostile
// bodies — the follower feeds it whatever arrives on the wire, so it
// must never panic and must hold the all-or-nothing contract: any
// error means no records are returned, and success means the batch
// re-encodes to a decodable stream of the same length.
func FuzzReplFrame(f *testing.F) {
	seed := func(recs ...store.Record) []byte {
		var buf []byte
		for _, r := range recs {
			fr, err := store.EncodeFrame(r)
			if err != nil {
				f.Fatal(err)
			}
			buf = append(buf, fr...)
		}
		return buf
	}
	f.Add([]byte(nil))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(seed(store.Record{Type: store.RecSubmit, JobID: "j1", Request: json.RawMessage(`{"algo":"pr"}`)}))
	f.Add(seed(
		store.Record{Type: store.RecGraph, GraphID: "g", GraphSpec: json.RawMessage(`{"kind":"powerlaw"}`)},
		store.Record{Type: store.RecStart, JobID: "j1"},
		store.Record{Type: store.RecFinish, JobID: "j1", State: "done"},
	))
	torn := seed(store.Record{Type: store.RecSubmit, JobID: "j2"})
	f.Add(torn[:len(torn)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := store.DecodeFrames(data)
		if err != nil {
			if recs != nil {
				t.Fatalf("error with partial records: %d records, err %v", len(recs), err)
			}
			return
		}
		// Round-trip: whatever decoded must re-encode into a stream
		// that decodes to the same record count.
		var rt []byte
		for _, r := range recs {
			fr, err := store.EncodeFrame(r)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			rt = append(rt, fr...)
		}
		recs2, err := store.DecodeFrames(rt)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round-trip record count %d != %d", len(recs2), len(recs))
		}
	})
}
