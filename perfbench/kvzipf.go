package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"fireflyrpc/internal/cluster"
	"fireflyrpc/internal/core"
	"fireflyrpc/internal/kvstore"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// kvZipf: three kvstore replicas and one cluster client on the in-process
// exchange, 10,000 preloaded keys, and two callers drawing Zipf(1.1) keys:
// GetAny 80%, Get 10%, Put 10%. P2C picking, hedging and the Fanout
// quorums dominate; writes run beside reads on the same replicas, so a
// read-path gain that costs writes shows in heavy_p50_us. There are two
// callers so that two writers can race on one key, which is how Put's
// version ties show.
var kvZipf = &workload{
	name:    "kv_zipf",
	classes: []string{"GetAny", "Get", "Put"},
	heavy:   []bool{false, false, true},
	callers: 2,
	mix:     kvMix,
	warmOps: 20_000,
	depth:   1,
	build:   buildKVZipf,
	shapes:  kvShapes,
}

var kvMix = []int{80, 10, 10}

const (
	kvKeys     = 10_000
	kvReplicas = 3
	zipfS      = 1.1
	// kvTimeout bounds one preload Put; the measured operations run
	// without a deadline, as the other workloads' calls do.
	kvTimeout = 5 * time.Second
)

func kvKey(i int) string { return fmt.Sprintf("key-%05d", i) }

// kvState is what the callers know about the keys, kept apart from the
// store: every tag issued for a key, and the newest version a Put of it
// was acked at.
type kvState struct {
	keys      []kvKeyState
	preloaded []int // keys each replica held when the preload ended

	puts, ties, anyReads, stale, notFound atomic.Int64
}

type kvKeyState struct {
	mu     sync.Mutex
	name   string
	floor  uint64              // newest acked version
	issued map[uint64]struct{} // tags written to this key
	acked  map[uint64]uint64   // acked version → tag, to find version ties
}

type kvCounts struct{ puts, ties, anyReads, stale, notFound int64 }

func (s *kvState) counts() kvCounts {
	return kvCounts{s.puts.Load(), s.ties.Load(), s.anyReads.Load(), s.stale.Load(), s.notFound.Load()}
}

func (a kvCounts) sub(b kvCounts) kvCounts {
	return kvCounts{a.puts - b.puts, a.ties - b.ties, a.anyReads - b.anyReads, a.stale - b.stale, a.notFound - b.notFound}
}

func newKVState() *kvState {
	s := &kvState{keys: make([]kvKeyState, kvKeys)}
	for i := range s.keys {
		s.keys[i].name = kvKey(i)
		s.keys[i].issued = map[uint64]struct{}{}
	}
	return s
}

// issue records tag as written to key k before the Put is sent.
func (s *kvState) issue(k int, tag uint64) {
	ks := &s.keys[k]
	ks.mu.Lock()
	ks.issued[tag] = struct{}{}
	ks.mu.Unlock()
}

// ack records that the Put of tag to key k was acked at ver.
func (s *kvState) ack(k int, tag, ver uint64) {
	ks := &s.keys[k]
	ks.mu.Lock()
	if ks.acked == nil {
		ks.acked = map[uint64]uint64{}
	}
	if other, ok := ks.acked[ver]; ok && other != tag {
		s.ties.Add(1)
	}
	ks.acked[ver] = tag
	if ver > ks.floor {
		ks.floor = ver
	}
	ks.mu.Unlock()
	s.puts.Add(1)
}

func (s *kvState) floor(k int) uint64 {
	ks := &s.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.floor
}

func (s *kvState) issuedTag(k int, tag uint64) bool {
	ks := &s.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	_, ok := ks.issued[tag]
	return ok
}

// A value is: key length, key, writer tag (8 bytes), filler, CRC-32C of
// everything before it (4 bytes). 100 to 200 bytes in all.
func kvValue(buf []byte, key string, tag uint64, n int) []byte {
	v := buf[:n]
	v[0] = byte(len(key))
	copy(v[1:], key)
	binary.BigEndian.PutUint64(v[1+len(key):], tag)
	fill(v[9+len(key):n-4], tag)
	binary.BigEndian.PutUint32(v[n-4:], crc32.Checksum(v[:n-4], castagnoli))
	return v
}

// writerTag names Put number seq of writer w; the preload is writer 0.
func writerTag(w int, seq uint64) uint64 { return uint64(w)<<40 | seq }

func buildKVZipf(seed int64, rec *recorder) (*world, error) {
	ex := transport.NewExchange()
	cfg := proto.DefaultConfig()
	w := &world{kv: newKVState()}
	var addrs []string
	for i := 0; i < kvReplicas; i++ {
		name := fmt.Sprintf("kv-%d", i)
		n := core.NewNode(tapped(ex.Port(name), rec, rec.node(name)), cfg)
		st := kvstore.NewStore()
		n.Export(st.Export())
		w.nodes = append(w.nodes, n)
		w.servers = append(w.servers, n)
		w.stores = append(w.stores, st)
		addrs = append(addrs, name)
	}
	client := core.NewNode(tapped(ex.Port("kv-client"), rec, rec.node("kv-client")), cfg)
	w.nodes = append(w.nodes, client)
	w.close = func() {
		for _, n := range w.nodes {
			n.Close()
		}
	}
	c, err := cluster.New(context.Background(), cluster.Config{
		Node:      client,
		Resolver:  cluster.Static(addrs),
		ParseAddr: func(s string) (transport.Addr, error) { return transport.AddrOf(s), nil },
		Iface:     kvstore.IfaceName,
		Version:   kvstore.IfaceVersion,
		Hedge:     cluster.HedgeConfig{Enabled: true},
		Seed:      uint64(seed),
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.cluster = c
	kv := kvstore.NewKV(c)

	rng := newRand(seed, 0)
	buf := make([]byte, 256)
	for k := 0; k < kvKeys; k++ {
		tag := writerTag(0, uint64(k))
		w.kv.issue(k, tag)
		ctx, cancel := context.WithTimeout(context.Background(), kvTimeout)
		ver, err := kv.Put(ctx, kvKey(k), kvValue(buf, kvKey(k), tag, 100+rng.Intn(101)))
		cancel()
		if err != nil {
			w.close()
			return nil, fmt.Errorf("preload %s: %w", kvKey(k), err)
		}
		w.kv.ack(k, tag, ver)
	}

	for _, st := range w.stores {
		w.kv.preloaded = append(w.kv.preloaded, st.Len())
	}

	// Zipf ranks map to keys through a seeded permutation, so which keys
	// are hot changes with the seed.
	perm := rng.Perm(kvKeys)
	w.newCaller = func(id, _ int) caller {
		r := newRand(seed, int64(id)+1)
		return kvCaller(kv, w.kv, r, rand.NewZipf(r, zipfS, 1, kvKeys-1), perm, id+1)
	}
	return w, nil
}

func kvCaller(kv *kvstore.KV, st *kvState, rng *rand.Rand, zipf *rand.Zipf, perm []int, writer int) caller {
	ctx := context.Background()
	buf := make([]byte, 256)
	var seq uint64
	return syncCaller(func() (int, error) {
		class := pick(rng, kvMix)
		k := perm[zipf.Uint64()]
		key := st.keys[k].name
		switch class {
		case 0:
			floor := st.floor(k)
			val, ver, err := kv.GetAny(ctx, key)
			st.anyReads.Add(1)
			if errors.Is(err, kvstore.ErrNotFound) {
				st.stale.Add(1)
				st.notFound.Add(1)
				return class, nil
			}
			if err != nil {
				return class, err
			}
			stale, err := checkRead(st, k, val, ver, floor, true)
			if stale {
				st.stale.Add(1)
			}
			return class, err
		case 1:
			floor := st.floor(k)
			val, ver, err := kv.Get(ctx, key)
			if errors.Is(err, kvstore.ErrNotFound) {
				return class, wrong("Get %s: not found, but a Put of it was acked at version %d", key, floor)
			}
			if err != nil {
				return class, err
			}
			_, err = checkRead(st, k, val, ver, floor, false)
			return class, err
		default:
			seq++
			tag := writerTag(writer, seq)
			st.issue(k, tag)
			ver, err := kv.Put(ctx, key, kvValue(buf, key, tag, 100+rng.Intn(101)))
			if err != nil {
				return class, err
			}
			st.ack(k, tag, ver)
			return class, nil
		}
	})
}

func kvShapes(seed int64) []shape {
	rng := newRand(seed, 0)
	key := kvKey(rng.Intn(kvKeys))
	val := kvValue(make([]byte, 256), key, writerTag(1, 1), 150)
	get := shape{4 + len(key) + 1 + 8 + 4 + len(val),
		func(e *marshal.Enc) {
			e.PutString(key)
			e.PutBool(true)
			e.PutUint64(7)
			e.PutVarBytes(val)
		}, func(d *marshal.Dec) {
			_ = d.String()
			d.Bool()
			d.Uint64()
			d.VarBytes()
		}}
	put := shape{4 + len(key) + 8 + 4 + len(val) + 1 + 8,
		func(e *marshal.Enc) {
			e.PutString(key)
			e.PutUint64(7)
			e.PutVarBytes(val)
			e.PutBool(true)
			e.PutUint64(7)
		}, func(d *marshal.Dec) {
			_ = d.String()
			d.Uint64()
			d.AliasVarBytes()
			d.Bool()
			d.Uint64()
		}}
	return []shape{get, get, put}
}
