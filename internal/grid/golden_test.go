package grid

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The golden files pin the two payloads grid puts inside fleet's job verbs,
// byte for byte (fleet's own golden files pin the AGSF envelope around them).
// Like fleet's they have no regeneration switch: a moved byte is a wire break.
func TestGoldenPayloads(t *testing.T) {
	job := testJob()
	res := jobResult{Snap: []byte("AGSSNAP\x00 stand-in bytes")}
	for i := range res.Digest {
		res.Digest[i] = byte(i * 3)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"job", encodeJob(nil, &job)},
		{"job-result", encodeJobResult(nil, &res)},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: payload bytes moved (%d bytes, golden %d)", g.name, len(g.got), len(want))
		}
	}
}
