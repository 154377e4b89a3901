package clc

import (
	"testing"

	"repro/internal/kir"
)

// FuzzParse feeds arbitrary source to the frontend. Malformed source must
// come back as an error: Parse must never panic, and every kernel it
// returns must pass kir.Verify and kir.Compile. The seed corpus under
// testdata/fuzz/FuzzParse holds every source in clc_test.go.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		ks, err := Parse(src)
		if err != nil {
			return
		}
		for _, k := range ks {
			if err := kir.Verify(k.Kernel); err != nil {
				t.Fatalf("Parse returned kernel %s that fails Verify: %v", k.Name, err)
			}
			if _, err := kir.Compile(k.Kernel); err != nil {
				t.Fatalf("Parse returned kernel %s that fails Compile: %v", k.Name, err)
			}
		}
	})
}
