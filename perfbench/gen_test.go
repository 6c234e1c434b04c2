package main

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// streamDigest hashes a stream's request bodies in send order, then the
// warm-up order.
func streamDigest(st *stream) [sha256.Size]byte {
	h := sha256.New()
	for _, order := range [][]int{st.seq, st.warm} {
		for _, i := range order {
			h.Write(st.items[i].body)
			h.Write([]byte{0})
		}
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// TestStreamSeeded checks that a seed fixes the request stream byte for
// byte and that another seed changes it, for every workload.
func TestStreamSeeded(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			a, err := generate(w, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(w, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			if da, db := streamDigest(a), streamDigest(b); da != db {
				t.Errorf("seed 7 gave two different streams")
			}
			if da, dc := streamDigest(a), streamDigest(c); bytes.Equal(da[:], dc[:]) {
				t.Errorf("seeds 7 and 8 gave the same stream")
			}
		})
	}
}
