package serve

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzJobRequest drives the untrusted half of POST /jobs — the strict JSON
// decode, canonicalize and hash — with arbitrary bodies: nothing panics, an
// accepted request is a fixed point of canonicalize, and its hash ignores
// priority. The committed corpus is in testdata/fuzz/FuzzJobRequest.
func FuzzJobRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil || req.canonicalize() != nil {
			return
		}
		again := req
		if err := again.canonicalize(); err != nil {
			t.Fatalf("canonical request rejected on a second pass: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("canonicalize is not idempotent:\n%+v\n%+v", req, again)
		}
		h := req.hash()
		req.Priority++
		if req.hash() != h {
			t.Fatal("priority changes the canonical hash")
		}
	})
}
