package ingest

import (
	"testing"
)

// FuzzDecodeBatch feeds arbitrary bytes to the batch decoder — the
// parser of every spool file and POST /v1/ingest body. Decoding must
// never panic, and a batch it accepts must survive EncodeBatch and a
// second DecodeBatch unchanged: same name, same transaction count,
// and graphs with identical dumps. The checked-in corpus under
// testdata/fuzz/FuzzDecodeBatch holds a valid multi-transaction
// batch, an unnamed one with an isolated vertex and a self-loop, and
// batches rejected for a duplicate vertex, a dangling edge and an
// edgeless transaction.
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, txns, err := DecodeBatch(data)
		if err != nil {
			return
		}
		enc, err := EncodeBatch(b.Name, txns)
		if err != nil {
			t.Fatalf("encode of a decoded batch: %v", err)
		}
		b2, txns2, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("decode of an encoded batch: %v\n%s", err, enc)
		}
		if b2.Name != b.Name || len(txns2) != len(txns) {
			t.Fatalf("round trip changed the batch: name %q -> %q, %d -> %d transactions",
				b.Name, b2.Name, len(txns), len(txns2))
		}
		for i := range txns {
			if got, want := txns2[i].Dump(), txns[i].Dump(); got != want {
				t.Fatalf("transaction %d changed in round trip:\n--- decoded ---\n%s--- re-decoded ---\n%s", i, want, got)
			}
		}
	})
}
