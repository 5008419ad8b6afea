package simio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseConfig drives ParseConfig with arbitrary documents: nothing
// panics, and an accepted configuration — its defaults filled in by
// Validate — re-encodes and re-parses to the same Config. The committed
// corpus is in testdata/fuzz/FuzzParseConfig.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := ParseConfig(bytes.NewReader(body))
		if err != nil {
			return
		}
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("accepted config does not encode: %v", err)
		}
		again, err := ParseConfig(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-encoded config %s rejected: %v", raw, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", c, again)
		}
	})
}
