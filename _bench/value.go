package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// rng is splitmix64: small, fast, and fully determined by its seed, so
// every stream's op sequence is a function of (--seed, stream) alone.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return finalize(r.s)
}

func finalize(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// mix derives an independent seed from a list of words.
func mix(words ...uint64) uint64 {
	h := uint64(0x243F6A8885A308D3)
	for _, w := range words {
		h = finalize(h ^ finalize(w+0x9E3779B97F4A7C15))
	}
	return h
}

func newRNG(words ...uint64) *rng { return &rng{s: mix(words...)} }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a uniform int in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// keyDist picks key indices: uniform, or zipf-skewed with exponent s
// (key 0 hottest).
type keyDist struct{ cdf []float64 }

func newKeyDist(n int, s float64) keyDist {
	if s == 0 {
		return keyDist{}
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return keyDist{cdf: cdf}
}

func (d keyDist) pick(r *rng, n int) int {
	if d.cdf == nil {
		return r.intn(n)
	}
	return sort.SearchFloat64s(d.cdf, r.float())
}

// A value identifies the key and version that wrote it, and its body is
// derived from both:
//
//	[0:4)  magic
//	[4:8)  key index
//	[8:16) version
//	[16:)  bodyWord(key, version, i) for each 8-byte word i
//
// so a reader can tell a torn value (header of one write, body of
// another), a value of another key, and a stale version apart without
// any shared state beyond the per-key version bounds.
const (
	valueMagic  = 0x52494f56 // "RIOV"
	valueHeader = 16
)

func bodySeed(key uint32, version uint64) uint64 {
	return mix(uint64(key), version, valueMagic)
}

// fillValue writes key's version-th value into dst (len(dst) is the
// value size, at least valueHeader).
func fillValue(dst []byte, key uint32, version uint64) {
	binary.LittleEndian.PutUint32(dst[0:], valueMagic)
	binary.LittleEndian.PutUint32(dst[4:], key)
	binary.LittleEndian.PutUint64(dst[8:], version)
	s := bodySeed(key, version)
	i := valueHeader
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], finalize(s+uint64(i)))
	}
	if i < len(dst) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], finalize(s+uint64(i)))
		copy(dst[i:], w[:])
	}
}

// Read verdicts. Each names one way a served value can be wrong.
var (
	errTorn     = errors.New("torn or corrupt value")
	errWrongKey = errors.New("value of another key")
	errStale    = errors.New("stale version")
	errFuture   = errors.New("version never sent")
	errSize     = errors.New("wrong value size")
)

// parseValue checks that b is self-consistent and returns its key and
// version.
func parseValue(b []byte, size int) (uint32, uint64, error) {
	if len(b) != size {
		return 0, 0, fmt.Errorf("%w: %d bytes, want %d", errSize, len(b), size)
	}
	if binary.LittleEndian.Uint32(b[0:]) != valueMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", errTorn)
	}
	key := binary.LittleEndian.Uint32(b[4:])
	version := binary.LittleEndian.Uint64(b[8:])
	s := bodySeed(key, version)
	i := valueHeader
	for ; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != finalize(s+uint64(i)) {
			return key, version, fmt.Errorf("%w: body word at %d does not match key %d version %d", errTorn, i, key, version)
		}
	}
	if i < len(b) {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], finalize(s+uint64(i)))
		for j := i; j < len(b); j++ {
			if b[j] != w[j-i] {
				return key, version, fmt.Errorf("%w: body byte at %d", errTorn, j)
			}
		}
	}
	return key, version, nil
}

// versions tracks, per key, the last version its single writer sent and
// the last one the server acknowledged. The writer stores sent before
// the request leaves and acked after the OK arrives; readers load acked
// before sending and sent after the answer, which brackets every version
// a correct server could have returned.
type versions struct {
	keys []keyVersions
}

type keyVersions struct {
	sent, acked atomic.Uint64
}

func newVersions(n int) *versions { return &versions{keys: make([]keyVersions, n)} }

// nextWrite reserves key's next version. Only key's owning stream calls it.
func (v *versions) nextWrite(key int) uint64 {
	kv := &v.keys[key]
	n := kv.sent.Load() + 1
	kv.sent.Store(n)
	return n
}

func (v *versions) ack(key int, version uint64) { v.keys[key].acked.Store(version) }

// lowBound is read before a read request is sent.
func (v *versions) lowBound(key int) uint64 { return v.keys[key].acked.Load() }

// check judges the bytes a read of key returned; lo came from lowBound
// before the send, and the upper bound is loaded now, after the answer.
func (v *versions) check(key int, lo uint64, data []byte, size int) error {
	hi := v.keys[key].sent.Load()
	k, ver, err := parseValue(data, size)
	if err != nil {
		return err
	}
	if int(k) != key {
		return fmt.Errorf("%w: asked for key %d, got key %d version %d", errWrongKey, key, k, ver)
	}
	if ver < lo {
		return fmt.Errorf("%w: key %d version %d, but %d was acknowledged before the read", errStale, key, ver, lo)
	}
	if ver > hi {
		return fmt.Errorf("%w: key %d version %d, but only %d was sent", errFuture, key, ver, hi)
	}
	return nil
}
