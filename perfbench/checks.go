package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"fireflyrpc/internal/marshal"
)

// newRand is the seeded stream for one user of a run's inputs: stream 0
// makes shared inputs, stream i the inputs of caller i.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// pick draws a class with probability proportional to its weight.
func pick(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	u := rng.Intn(total)
	for i, w := range weights {
		if u < w {
			return i
		}
		u -= w
	}
	return len(weights) - 1
}

// fill writes a splitmix64 stream keyed by key into b.
func fill(b []byte, key uint64) {
	x := key
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(w[:], z^(z>>31))
		copy(b[i:], w[:])
	}
}

// The checks compare each answer with what the caller computed itself.
// Each returns a checkError for a wrong answer.

func checkAdd4(a, b, c, d, got int32) error {
	if want := a + b + c + d; got != want {
		return wrong("Add4(%d, %d, %d, %d) = %d, want %d", a, b, c, d, got, want)
	}
	return nil
}

func checkGreet(want string, got *marshal.Text) error {
	if got.IsNil() || got.String() != want {
		return wrong("Greet answered %q, want %q", got.String(), want)
	}
	return nil
}

func checkIncrement(in, got uint32) error {
	if got != in+1 {
		return wrong("Increment(%d) = %d, want %d", in, got, in+1)
	}
	return nil
}

func checkBytes(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return wrong("%s: %d bytes differ from the %d expected", what, len(got), len(want))
	}
	return nil
}

func checkDigest(want, got uint32) error {
	if got != want {
		return wrong("upload digest %08x, want %08x", got, want)
	}
	return nil
}

// checkRead checks a read of key k that started when the newest acked Put
// of k was at version floor: the value must be intact, carry key k and a
// tag issued for k. A version below floor is a stale read when staleOK
// (GetAny documents staleness) and a wrong answer otherwise (a majority
// Get must observe every acked Put).
func checkRead(st *kvState, k int, val []byte, ver, floor uint64, staleOK bool) (stale bool, err error) {
	key := st.keys[k].name
	if len(val) < 1+len(key)+8+4 {
		return false, wrong("read %s: %d-byte value is too short", key, len(val))
	}
	n := len(val)
	if crc32.Checksum(val[:n-4], castagnoli) != binary.BigEndian.Uint32(val[n-4:]) {
		return false, wrong("read %s: value fails its checksum", key)
	}
	kl := int(val[0])
	if 1+kl+8+4 > n || string(val[1:1+kl]) != key {
		return false, wrong("read %s: value belongs to another key", key)
	}
	tag := binary.BigEndian.Uint64(val[1+kl:])
	if !st.issuedTag(k, tag) {
		return false, wrong("read %s: tag %x was never written to it", key, tag)
	}
	if ver < floor {
		if staleOK {
			return true, nil
		}
		return false, wrong("Get %s: version %d, but a Put was acked at %d before the Get began", key, ver, floor)
	}
	return false, nil
}

// selfTest shows that every check rejects a corrupted answer: a flipped
// byte, the wrong key, a lower version, a wrong sum, text or digest.
func selfTest() error {
	isWrong := func(err error) bool {
		var ce *checkError
		return errors.As(err, &ce)
	}
	var failures []string
	expect := func(name string, ok bool) {
		if !ok {
			failures = append(failures, name)
		}
	}
	pattern := maxResultPattern(1)
	flipped := append([]byte(nil), pattern...)
	flipped[700] ^= 0x10
	expect("Add4 accepts its sum", checkAdd4(1, 2, 3, 4, 10) == nil)
	expect("Add4 rejects a wrong sum", isWrong(checkAdd4(1, 2, 3, 4, 11)))
	expect("Greet accepts its text", checkGreet(greetPrefix+"ann", marshal.NewText(greetPrefix+"ann")) == nil)
	expect("Greet rejects other text", isWrong(checkGreet(greetPrefix+"ann", marshal.NewText(greetPrefix+"anne"))))
	expect("Greet rejects NIL", isWrong(checkGreet(greetPrefix+"ann", nil)))
	expect("Increment accepts +1", checkIncrement(41, 42) == nil)
	expect("Increment rejects +0", isWrong(checkIncrement(41, 41)))
	expect("bytes accept the pattern", checkBytes("MaxResult", pattern, maxResultPattern(1)) == nil)
	expect("bytes reject a flipped byte", isWrong(checkBytes("MaxResult", pattern, flipped)))
	expect("bytes reject a short answer", isWrong(checkBytes("download", pattern, pattern[:1439])))
	blob := blobContent(1, 4<<10, 3)
	sum := crc32.Checksum(blob, castagnoli)
	blob[17] ^= 1
	expect("digest accepts its sum", checkDigest(sum, sum) == nil)
	expect("digest rejects a flipped byte", isWrong(checkDigest(sum, crc32.Checksum(blob, castagnoli))))

	st := &kvState{keys: make([]kvKeyState, 2)}
	for i := range st.keys {
		st.keys[i].name = kvKey(i)
		st.keys[i].issued = map[uint64]struct{}{}
	}
	tag := writerTag(1, 5)
	st.issue(0, tag)
	st.issue(1, writerTag(1, 6))
	good := kvValue(make([]byte, 256), kvKey(0), tag, 150)
	_, err := checkRead(st, 0, good, 3, 3, false)
	expect("read accepts an acked value", err == nil)
	bad := append([]byte(nil), good...)
	bad[60] ^= 4
	_, err = checkRead(st, 0, bad, 3, 3, false)
	expect("read rejects a flipped byte", isWrong(err))
	other := kvValue(make([]byte, 256), kvKey(1), writerTag(1, 6), 150)
	_, err = checkRead(st, 0, other, 3, 3, false)
	expect("read rejects the wrong key", isWrong(err))
	forged := kvValue(make([]byte, 256), kvKey(0), writerTag(2, 9), 150)
	_, err = checkRead(st, 0, forged, 3, 3, false)
	expect("read rejects a tag never written", isWrong(err))
	_, err = checkRead(st, 0, good, 2, 3, false)
	expect("Get rejects a lower version", isWrong(err))
	stale, err := checkRead(st, 0, good, 2, 3, true)
	expect("GetAny counts a lower version as stale", stale && err == nil)

	if len(failures) > 0 {
		return fmt.Errorf("%v", failures)
	}
	return nil
}
