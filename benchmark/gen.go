package main

import (
	"math/rand"

	keygen "pdmdict/internal/workload"
)

// Operation kinds of a generated stream.
const (
	opLookup uint8 = iota
	opInsert
	opDelete
)

// op is one generated operation together with the result the oracle
// expects, so the measured loop verifies by comparison and consults no
// map.
type op struct {
	key uint64
	// want is the satellite version the key holds when the op runs: 0
	// means absent. Lookups must return satOf(key, want), deletes must
	// report want != 0, inserts store satOf(key, want).
	want uint32
	kind uint8
}

// missBit marks a key no workload ever stores: generated keys stay below
// 2^62 and the default universe is 2^63.
const missBit = uint64(1) << 62

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// satWords is the satellite size of every benchmark record.
const satWords = 2

// satOf is the satellite of key at version ver: a pure function, so
// read-only workloads need no oracle map and updating workloads need
// only the version.
func satOf(key uint64, ver uint32) [satWords]uint64 {
	h := mix64(key ^ uint64(ver)<<40)
	return [satWords]uint64{h, h ^ key}
}

// satOK reports whether got is satOf(key, ver).
func satOK(got []uint64, key uint64, ver uint32) bool {
	w := satOf(key, ver)
	return len(got) == satWords && got[0] == w[0] && got[1] == w[1]
}

// distinctKeys returns n distinct keys below 2^62 drawn from seed.
func distinctKeys(n int, seed uint64) []uint64 {
	return keygen.UniformRNG(n, missBit, rand.New(rand.NewSource(int64(seed))))
}

// stream produces one client's operations. fill continues the stream, so
// a run cut into segments sees the same operations as an uncut one.
type stream interface {
	fill(buf []op)
}

// clientRNG derives client c's private generator from the run seed.
func clientRNG(seed uint64, c int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(seed + uint64(c)*7919 + 1))))
}

// uniformReads looks up uniformly drawn stored keys, and with
// probability missPct/100 a key that is guaranteed absent.
type uniformReads struct {
	rng     *rand.Rand
	keys    []uint64
	missPct int
}

func (s *uniformReads) fill(buf []op) {
	for i := range buf {
		k := s.keys[s.rng.Intn(len(s.keys))]
		o := op{key: k, want: 1, kind: opLookup}
		if s.rng.Intn(100) < s.missPct {
			o.key, o.want = k|missBit, 0
		}
		buf[i] = o
	}
}

// zipfReads looks up stored keys by Zipf rank (keys[0] most popular).
// When insertEvery > 0 every insertEvery-th op instead inserts the next
// key of fresh, a pool private to the client, so the insert share is
// exact and independent of the seed.
type zipfReads struct {
	zipf        *rand.Zipf
	keys        []uint64
	insertEvery int
	fresh       []uint64
	n           int
}

func newZipfReads(rng *rand.Rand, keys []uint64, insertEvery int, fresh []uint64) *zipfReads {
	return &zipfReads{
		zipf:        rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1)),
		keys:        keys,
		insertEvery: insertEvery,
		fresh:       fresh,
	}
}

// zipfS is the skew of every Zipf stream.
const zipfS = 1.1

func (s *zipfReads) fill(buf []op) {
	for i := range buf {
		s.n++
		if s.insertEvery > 0 && s.n%s.insertEvery == 0 && len(s.fresh) > 0 {
			buf[i] = op{key: s.fresh[0], want: 1, kind: opInsert}
			s.fresh = s.fresh[1:]
			continue
		}
		buf[i] = op{key: s.keys[s.zipf.Uint64()], want: 1, kind: opLookup}
	}
}

// mixedUpdates is the 50 % insert / 25 % delete / 25 % lookup stream
// over Zipf-ranked keys. It carries the oracle: live maps every stored
// key to its current satellite version, and each op is stamped with the
// result a correct dictionary must give.
type mixedUpdates struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	seed uint64
	live map[uint64]uint32
}

// mixedUniverse is the number of Zipf ranks mixedUpdates draws from;
// the tail beyond the preloaded head supplies the new keys that make
// the dictionary grow through its rebuilds.
const mixedUniverse = 1 << 20

func newMixedUpdates(seed uint64, preload int) *mixedUpdates {
	rng := clientRNG(seed, 0)
	s := &mixedUpdates{
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, mixedUniverse-1),
		seed: seed,
		live: make(map[uint64]uint32, 4*preload),
	}
	for r := 0; r < preload; r++ {
		s.live[s.keyOf(uint64(r))] = 1
	}
	return s
}

// keyOf maps a Zipf rank to its key. Two ranks may share a key; the
// oracle is keyed by key, so that is harmless.
func (s *mixedUpdates) keyOf(rank uint64) uint64 {
	return mix64(s.seed^rank*0x9e3779b97f4a7c15) >> 2
}

func (s *mixedUpdates) fill(buf []op) {
	for i := range buf {
		k := s.keyOf(s.zipf.Uint64())
		ver := s.live[k]
		switch r := s.rng.Intn(4); {
		case r < 2:
			ver++
			if ver == 0 {
				ver = 1
			}
			s.live[k] = ver
			buf[i] = op{key: k, want: ver, kind: opInsert}
		case r == 2:
			delete(s.live, k)
			buf[i] = op{key: k, want: ver, kind: opDelete}
		default:
			buf[i] = op{key: k, want: ver, kind: opLookup}
		}
	}
}
