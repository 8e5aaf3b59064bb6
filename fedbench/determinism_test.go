package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// datasetHash digests everything a dataset would seed into the federation.
func datasetHash(d *dataset) [32]byte {
	h := sha256.New()
	for _, n := range d.Nodes {
		fmt.Fprintf(h, "%s|%s|%s|%s|%v\n", n.Name, n.Engine, n.Product, n.InfoType, n.Tiny)
		if n.Obs != nil {
			fmt.Fprintln(h, n.Obs.grp, n.Obs.val, n.Obs.code)
		}
		if n.Ref != nil {
			fmt.Fprintln(h, n.Ref.code)
		}
	}
	fmt.Fprintln(h, d.Coalitions, d.Links, d.Homes, d.Spare, d.Writable, d.Topics)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// streamHash digests the first n ops: exactly the text the program receives,
// plus where it is sent.
func streamHash(d *dataset, seed int64, n int) [32]byte {
	h := sha256.New()
	s := newStream(d, seed, false)
	for i := 0; i < n; i++ {
		op := s.next()
		fmt.Fprintf(h, "%d|%d|%s\n", op.Kind, op.Node, op.Text)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSeedDeterminesDatasetAndStream(t *testing.T) {
	for _, w := range []string{wlScan, wlDiscovery, wlChurn} {
		a, _ := newDataset(w, 42)
		b, _ := newDataset(w, 42)
		c, _ := newDataset(w, 43)
		if datasetHash(a) != datasetHash(b) {
			t.Errorf("%s: same seed, different datasets", w)
		}
		if datasetHash(a) == datasetHash(c) {
			t.Errorf("%s: different seeds, same dataset", w)
		}
		if streamHash(a, 42, 5000) != streamHash(b, 42, 5000) {
			t.Errorf("%s: same seed, different op streams", w)
		}
		if streamHash(a, 42, 5000) == streamHash(c, 43, 5000) {
			t.Errorf("%s: different seeds, same op stream", w)
		}
	}
}
