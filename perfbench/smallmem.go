package main

import (
	"math/rand"

	"fireflyrpc/internal/core"
	"fireflyrpc/internal/marshal"
	"fireflyrpc/internal/proto"
	"fireflyrpc/internal/testsvc"
	"fireflyrpc/internal/transport"
)

// smallMem: one caller drives the generated Test stubs over the in-process
// exchange. Only the fixed per-call cost runs here — the proto call table,
// goroutine handoffs, core stubs and marshal — with no sockets, fragments
// or cluster, so inline dispatch and allocation cuts show and datapath
// changes must not.
var smallMem = &workload{
	name:    "small_mem",
	classes: []string{"Null", "Add4", "Greet", "Increment", "MaxResult"},
	heavy:   []bool{false, false, false, false, true},
	callers: 1,
	mix:     smallMix,
	warmOps: 100_000,
	depth:   1,
	build:   buildSmallMem,
	shapes:  smallShapes,
}

// smallMix is the share of each class, in percent.
var smallMix = []int{40, 25, 15, 10, 10}

const greetPrefix = "hello, "

// testService is the benchmark's Test implementation: each procedure does
// the least work whose answer the caller can check.
type testService struct {
	pattern []byte // MaxResult's answer
	rec     *recorder
	node    int16
}

// begin and end bracket a handler body with a span in traced runs.
func (s *testService) begin() int64 {
	if s.rec.active() {
		return now()
	}
	return 0
}

func (s *testService) end(t0 int64) {
	if t0 != 0 {
		s.rec.add(spanHandler, s.node, t0, now())
	}
}

func (s *testService) Null() error {
	s.end(s.begin())
	return nil
}

func (s *testService) MaxResult(buffer []byte) error {
	t0 := s.begin()
	copy(buffer, s.pattern)
	s.end(t0)
	return nil
}

func (s *testService) MaxArg(buffer []byte) error { return nil }

func (s *testService) Add4(a, b, c, d int32) (int32, error) {
	t0 := s.begin()
	sum := a + b + c + d
	s.end(t0)
	return sum, nil
}

func (s *testService) Reverse(data []byte, out *[]byte) error {
	*out = append([]byte(nil), data...)
	return nil
}

func (s *testService) Greet(name *marshal.Text) (*marshal.Text, error) {
	t0 := s.begin()
	t := marshal.NewText(greetPrefix + name.String())
	s.end(t0)
	return t, nil
}

func (s *testService) Increment(counter *uint32) error {
	t0 := s.begin()
	*counter++
	s.end(t0)
	return nil
}

// maxResultPattern is MaxResult's expected answer for a seed. The server
// and each caller compute it separately.
func maxResultPattern(seed int64) []byte {
	b := make([]byte, 1440)
	fill(b, uint64(seed)^0x5eed0001)
	return b
}

// greetNames draws the names a caller greets; each caller knows the answer
// it expects for every name.
func greetNames(rng *rand.Rand) (names []*marshal.Text, want []string) {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := 0; i < 8; i++ {
		b := make([]byte, 4+rng.Intn(21))
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		names = append(names, marshal.NewText(string(b)))
		want = append(want, greetPrefix+string(b))
	}
	return names, want
}

func buildSmallMem(seed int64, rec *recorder) (*world, error) {
	ex := transport.NewExchange()
	cfg := proto.DefaultConfig()
	sid, cid := rec.node("server"), rec.node("caller")
	server := core.NewNode(tapped(ex.Port("server"), rec, sid), cfg)
	client := core.NewNode(tapped(ex.Port("caller"), rec, cid), cfg)
	server.Export(testsvc.ExportTest(&testService{pattern: maxResultPattern(seed), rec: rec, node: sid}))
	binding := client.Bind(server.Addr(), testsvc.TestName, testsvc.TestVersion)
	return &world{
		nodes:   []*core.Node{server, client},
		servers: []*core.Node{server},
		newCaller: func(id, _ int) caller {
			return smallCaller(testsvc.NewTestClient(binding), newRand(seed, int64(id)+1), maxResultPattern(seed))
		},
		close: func() {
			client.Close()
			server.Close()
		},
	}, nil
}

func smallCaller(cl *testsvc.TestClient, rng *rand.Rand, pattern []byte) caller {
	names, greetings := greetNames(rng)
	buf := make([]byte, len(pattern))
	return syncCaller(func() (int, error) {
		class := pick(rng, smallMix)
		switch class {
		case 0:
			return class, cl.Null()
		case 1:
			a, b, c, d := int32(rng.Uint32()), int32(rng.Uint32()), int32(rng.Uint32()), int32(rng.Uint32())
			got, err := cl.Add4(a, b, c, d)
			if err != nil {
				return class, err
			}
			return class, checkAdd4(a, b, c, d, got)
		case 2:
			i := rng.Intn(len(names))
			got, err := cl.Greet(names[i])
			if err != nil {
				return class, err
			}
			return class, checkGreet(greetings[i], got)
		case 3:
			in := rng.Uint32()
			v := in
			if err := cl.Increment(&v); err != nil {
				return class, err
			}
			return class, checkIncrement(in, v)
		default:
			clear(buf)
			if err := cl.MaxResult(buf); err != nil {
				return class, err
			}
			return class, checkBytes("MaxResult", pattern, buf)
		}
	})
}

func smallShapes(seed int64) []shape {
	rng := newRand(seed, 0)
	names, greetings := greetNames(rng)
	name, greeting := names[0], marshal.NewText(greetings[0])
	pattern := maxResultPattern(seed)
	dst := make([]byte, len(pattern))
	return []shape{
		{0, func(*marshal.Enc) {}, func(*marshal.Dec) {}},
		{20, func(e *marshal.Enc) {
			e.PutInt32(1)
			e.PutInt32(2)
			e.PutInt32(3)
			e.PutInt32(4)
			e.PutInt32(10)
		}, func(d *marshal.Dec) {
			for i := 0; i < 5; i++ {
				d.Int32()
			}
		}},
		{marshal.TextWireSize(name) + marshal.TextWireSize(greeting), func(e *marshal.Enc) {
			e.PutText(name)
			e.PutText(greeting)
		}, func(d *marshal.Dec) {
			d.GetText()
			d.GetText()
		}},
		{8, func(e *marshal.Enc) {
			e.PutUint32(7)
			e.PutUint32(8)
		}, func(d *marshal.Dec) {
			d.Uint32()
			d.Uint32()
		}},
		{len(pattern), func(e *marshal.Enc) { e.PutFixedBytes(pattern) }, func(d *marshal.Dec) { d.FixedBytes(dst) }},
	}
}
