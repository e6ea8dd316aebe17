package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"rnb"
)

// The shared key and value stream: keys item:NNNNNNN, 100 B values,
// 16 distinct keys per multi-get. Everything a timed loop touches is
// built here, during set-up, so the loop itself allocates nothing.
const (
	valueSize   = 100
	keysPerGet  = 16
	replicas    = 3
	streamLen   = 1 << 16 // requests; the timed loop cycles through them
	warmupReqs  = 4000    // fixed, so the tier state at the window start repeats
	prefixReqs  = 16384   // live-mix operations that tpr and the fidelity check cover
	setFraction = 10      // percent of operations that are Client.Set in a mixed stream
)

// stream is one seeded sequence of operations over a fixed key set.
type stream struct {
	keys []string // key index -> key
	// reqs holds request i's key indices at [i*keysPerGet, (i+1)*keysPerGet).
	reqs []int32
	// setOf[i] is the item request i writes, or nil when request i is a
	// multi-get.
	setOf []*rnb.Item
	// initial[k] is the value key k is preloaded with.
	initial [][]byte
}

// newStream builds nKeys keys and streamLen operations from seed. With
// mixed set, about setFraction percent of the operations are Sets of one
// key, each carrying a fresh version of that key's value.
func newStream(seed int64, nKeys int, mixed bool) *stream {
	rng := rand.New(rand.NewSource(seed))
	base := rng.Intn(9_000_000)
	s := &stream{
		keys:    make([]string, nKeys),
		reqs:    make([]int32, streamLen*keysPerGet),
		setOf:   make([]*rnb.Item, streamLen),
		initial: make([][]byte, nKeys),
	}
	for k := range s.keys {
		s.keys[k] = fmt.Sprintf("item:%07d", base+k)
		s.initial[k] = encodeValue(rng, s.keys[k], 0)
	}
	version := make([]int, nKeys)
	seen := make(map[int32]bool, keysPerGet)
	for i := 0; i < streamLen; i++ {
		if mixed && rng.Intn(100) < setFraction {
			k := rng.Intn(nKeys)
			version[k]++
			s.setOf[i] = &rnb.Item{Key: s.keys[k], Value: encodeValue(rng, s.keys[k], version[k])}
			continue
		}
		clear(seen)
		req := s.reqs[i*keysPerGet : (i+1)*keysPerGet]
		for j := range req {
			k := int32(rng.Intn(nKeys))
			for seen[k] {
				k = int32(rng.Intn(nKeys))
			}
			seen[k] = true
			req[j] = k
		}
	}
	return s
}

// encodeValue makes a valueSize-byte value naming its key and write
// version, padded with seeded filler, so a value read back proves both
// which key it belongs to and how fresh it is.
func encodeValue(rng *rand.Rand, key string, version int) []byte {
	v := make([]byte, 0, valueSize)
	v = fmt.Appendf(v, "%s v%07d ", key, version)
	for len(v) < valueSize {
		v = append(v, byte('a'+rng.Intn(26)))
	}
	return v
}

// request returns the key indices of request i (cycling the stream).
func (s *stream) request(i int) []int32 {
	i %= streamLen
	return s.reqs[i*keysPerGet : (i+1)*keysPerGet]
}

// set returns the item request i writes, or nil for a multi-get.
func (s *stream) set(i int) *rnb.Item { return s.setOf[i%streamLen] }

// oracle holds the latest value written to every key. A multi-get is
// correct when every requested key is present with exactly that value.
type oracle struct {
	latest [][]byte
	index  map[string]int32 // key -> key index, for Sets
}

func newOracle(s *stream) *oracle {
	o := &oracle{latest: make([][]byte, len(s.keys)), index: make(map[string]int32, len(s.keys))}
	copy(o.latest, s.initial)
	for k, key := range s.keys {
		o.index[key] = int32(k)
	}
	return o
}

// check reports whether out holds every key of req at its latest value.
func (o *oracle) check(s *stream, req []int32, out map[string]*rnb.Item) bool {
	for _, k := range req {
		it, ok := out[s.keys[k]]
		if !ok || !bytes.Equal(it.Value, o.latest[k]) {
			return false
		}
	}
	return true
}

// wrote records a successful Set.
func (o *oracle) wrote(it *rnb.Item) { o.latest[o.index[it.Key]] = it.Value }
