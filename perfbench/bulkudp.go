package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sync/atomic"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/transport"
)

// bulkUDP: one caller moves 4, 16 and 60 KiB blobs, up and down in equal
// shares, over the batched UDP loopback datapath, issuing each call with
// core.Client.Go. Multi-fragment stop-and-wait, acknowledgements, socket
// syscalls, GSO/GRO and buffer copies dominate; small-call and cluster
// costs barely register.
//
// The caller keeps one call in flight. With more, 60 KiB calls queue behind
// each other past the retransmission timeout (6.25 ms floor), and the share
// of calls that take the timeout path swings with outside load: at 8 in
// flight on each of two callers it ran from 1% to 3% between runs of the
// same code, and throughput and every latency figure swung with it. --depth
// keeps more calls in flight and shows that path.
var bulkUDP = &workload{
	name:    "bulk_udp",
	classes: []string{"up4K", "up16K", "up60K", "down4K", "down16K", "down60K"},
	heavy:   []bool{false, false, true, false, false, true},
	callers: 1,
	mix:     bulkMix,
	warmOps: 1_500,
	depth:   1,
	build:   buildBulkUDP,
	shapes:  bulkShapes,
}

var bulkMix = []int{1, 1, 1, 1, 1, 1}

// The blob service is the benchmark's own interface.
const (
	blobName     = "Blob"
	blobVersion  = 1
	procUpload   = 1 // data → CRC-32C of data
	procDownload = 2 // size, variant → the variant's content
	// blobVariants is how many distinct contents each size has per seed.
	blobVariants = 8
)

// bulkServerPort and the port after it are the loopback ports bulk_udp
// binds. The batched engine spreads each socket's receive over
// SO_REUSEPORT shards by a hash of the address pair; fixed ports keep the
// shard each flow lands on the same from run to run on one machine, so
// that choice is not one more source of run-to-run spread.
const bulkServerPort = 47310

// listenBulk opens the batched UDP transport on port, or on any port when
// port is taken.
func listenBulk(port int) (transport.Transport, error) {
	tr, err := transport.ListenUDPBatch(fmt.Sprintf("127.0.0.1:%d", port), transport.UDPOptions{})
	if err == nil {
		return tr, nil
	}
	fmt.Fprintf(os.Stderr, "bulk_udp: port %d: %v; using an ephemeral port, so figures may move between runs\n", port, err)
	return transport.ListenUDPBatch("127.0.0.1:0", transport.UDPOptions{})
}

var (
	blobSizes  = []int{4 << 10, 16 << 10, 60 << 10}
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// blobContent is the content of (seed, size, variant); the server and each
// caller generate it separately.
func blobContent(seed int64, size, variant int) []byte {
	b := make([]byte, size)
	fill(b, uint64(seed)<<20^uint64(size)<<4^uint64(variant))
	return b
}

// blobService answers downloads from contents it generated at start-up, so
// the handler's work is small next to the transfer.
type blobService struct {
	replies [][]byte // marshalled Download results, by size*blobVariants+variant
	rec     *recorder
	node    int16
}

func (s *blobService) begin() int64 {
	if s.rec.active() {
		return now()
	}
	return 0
}

func (s *blobService) end(t0 int64) {
	if t0 != 0 {
		s.rec.add(spanHandler, s.node, t0, now())
	}
}

func (s *blobService) export() *core.Interface {
	return core.NewInterface(blobName, blobVersion).
		Proc(procUpload, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			t0 := s.begin()
			data := d.AliasVarBytes()
			if err := d.Err(); err != nil {
				return nil, err
			}
			sum := crc32.Checksum(data, castagnoli)
			s.end(t0)
			return core.Reply(4, func(e *marshal.Enc) { e.PutUint32(sum) })
		}).
		Proc(procDownload, func(_ transport.Addr, d *marshal.Dec) ([]byte, error) {
			t0 := s.begin()
			size, variant := int(d.Uint32()), int(d.Uint32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			for i, sz := range blobSizes {
				if sz == size && variant < blobVariants {
					s.end(t0)
					return s.replies[i*blobVariants+variant], nil
				}
			}
			return nil, fmt.Errorf("no blob of %d bytes, variant %d", size, variant)
		})
}

func buildBulkUDP(seed int64, rec *recorder) (*world, error) {
	svc := &blobService{rec: rec}
	for _, size := range blobSizes {
		for v := 0; v < blobVariants; v++ {
			data := blobContent(seed, size, v)
			reply := make([]byte, 4+size)
			marshal.NewEnc(reply).PutVarBytes(data)
			svc.replies = append(svc.replies, reply)
		}
	}
	serverTr, err := listenBulk(bulkServerPort)
	if err != nil {
		return nil, err
	}
	callerTr, err := listenBulk(bulkServerPort + 1)
	if err != nil {
		serverTr.Close()
		return nil, err
	}
	cfg := proto.DefaultConfig()
	sid, cid := rec.node("server"), rec.node("caller")
	svc.node = sid
	server := core.NewNode(tapped(serverTr, rec, sid), cfg)
	client := core.NewNode(tapped(callerTr, rec, cid), cfg)
	server.Export(svc.export())
	binding := client.Bind(server.Addr(), blobName, blobVersion)

	// Each caller checks against contents and digests it made itself.
	var expect [][]byte
	var digests []uint32
	for _, size := range blobSizes {
		for v := 0; v < blobVariants; v++ {
			data := blobContent(seed, size, v)
			expect = append(expect, data)
			digests = append(digests, crc32.Checksum(data, castagnoli))
		}
	}
	return &world{
		nodes:   []*core.Node{server, client},
		servers: []*core.Node{server},
		newCaller: func(id, depth int) caller {
			return &bulkCaller{cl: binding.NewClient(), rng: newRand(seed, int64(id)+1),
				expect: expect, digests: digests, slots: make([]bulkSlot, depth)}
		},
		close: func() {
			client.Close()
			server.Close()
		},
	}, nil
}

// bulkCaller keeps len(slots) calls in flight and takes their answers in
// whatever order they complete.
type bulkCaller struct {
	cl      *core.Client
	rng     *rand.Rand
	expect  [][]byte
	digests []uint32
	slots   []bulkSlot
}

type bulkSlot struct {
	p     *core.Pending
	busy  bool
	start int64
	class int
	blob  int // index into expect/digests
	err   error
	dec   func(*marshal.Dec)
	enc   func(*marshal.Enc)
}

func (c *bulkCaller) issue(s *bulkSlot) {
	s.class = pick(c.rng, bulkMix)
	s.blob = (s.class%3)*blobVariants + c.rng.Intn(blobVariants)
	s.err = nil
	if s.enc == nil {
		s.enc = func(e *marshal.Enc) {
			if s.class < 3 {
				e.PutVarBytes(c.expect[s.blob])
			} else {
				e.PutUint32(uint32(len(c.expect[s.blob])))
				e.PutUint32(uint32(s.blob % blobVariants))
			}
		}
		s.dec = func(d *marshal.Dec) {
			if s.class < 3 {
				s.err = checkDigest(c.digests[s.blob], d.Uint32())
			} else {
				s.err = checkBytes("download", c.expect[s.blob], d.AliasVarBytes())
			}
		}
	}
	proc, size := uint16(procUpload), 4+len(c.expect[s.blob])
	if s.class >= 3 {
		proc, size = procDownload, 8
	}
	s.busy = true
	s.start = now()
	s.p, s.err = c.cl.Go(context.Background(), proc, size, s.enc)
}

// complete collects slot s's answer into out.
func (c *bulkCaller) complete(s *bulkSlot, out *samples) {
	if s.p != nil {
		if err := s.p.Await(context.Background(), s.dec); err != nil && s.err == nil {
			s.err = err
		}
		s.p = nil
	}
	s.busy = false
	out.done(s.start, now(), s.class, s.err)
}

func (c *bulkCaller) loop(stop *atomic.Bool, limit int64, out *samples) {
	issued := int64(0)
	more := func() bool { return out.more(stop, issued, limit) }
	live := 0
	for i := range c.slots {
		if !more() {
			break
		}
		c.issue(&c.slots[i])
		issued++
		live++
	}
	for live > 0 {
		i := c.next()
		c.complete(&c.slots[i], out)
		live--
		if more() {
			c.issue(&c.slots[i])
			issued++
			live++
		}
	}
}

// maxDepth is the most calls a bulk caller keeps in flight; next selects
// over that many channels.
const maxDepth = 8

// next blocks until an in-flight slot has completed and returns its index.
// An idle slot is never picked; a call that failed to start counts as
// complete at once.
func (c *bulkCaller) next() int {
	var ch [maxDepth]<-chan struct{}
	for i := range c.slots {
		s := &c.slots[i]
		if !s.busy {
			continue
		}
		if s.p == nil {
			return i
		}
		ch[i] = s.p.Done()
	}
	var i int
	select {
	case <-ch[0]:
		i = 0
	case <-ch[1]:
		i = 1
	case <-ch[2]:
		i = 2
	case <-ch[3]:
		i = 3
	case <-ch[4]:
		i = 4
	case <-ch[5]:
		i = 5
	case <-ch[6]:
		i = 6
	case <-ch[7]:
		i = 7
	}
	return i
}

func bulkShapes(seed int64) []shape {
	var shapes []shape
	for _, size := range blobSizes {
		data := blobContent(seed, size, 0)
		shapes = append(shapes, shape{4 + size + 4,
			func(e *marshal.Enc) {
				e.PutVarBytes(data)
				e.PutUint32(1)
			}, func(d *marshal.Dec) {
				d.AliasVarBytes()
				d.Uint32()
			}})
	}
	for _, size := range blobSizes {
		data := blobContent(seed, size, 1)
		shapes = append(shapes, shape{8 + 4 + size,
			func(e *marshal.Enc) {
				e.PutUint32(uint32(size))
				e.PutUint32(1)
				e.PutVarBytes(data)
			}, func(d *marshal.Dec) {
				d.Uint32()
				d.Uint32()
				d.AliasVarBytes()
			}})
	}
	return shapes
}
