package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"rio"
	"rio/internal/server"
	"rio/internal/wire"
)

// kvSpec is the make-up of a key-value serving workload.
type kvSpec struct {
	tcp       bool    // loopback TCP through DialMux, else MemClient
	shards    int     // server shards
	memoryMB  int     // physical memory per shard
	keys      int     // distinct keys, one file each
	valueSize int     // bytes per value; every write replaces the whole value
	readShare float64 // share of reads; the rest are writes
	zipf      float64 // key skew exponent; 0 = uniform
	pipeline  int     // closed-loop streams per connection
	warmup    int     // untimed mixed ops per stream before timing
}

var (
	// serveSpill: the key set is 2.3x the shards' data caches together,
	// so reads miss, writes evict, and dirty victims are written back.
	serveSpill = kvSpec{shards: 2, memoryMB: 8, keys: 1600, valueSize: 8192,
		readShare: 0.5, pipeline: 4, warmup: 400}
	// serveReadTCP: the working set is under half the data cache, so the
	// wire, the TCP writer and path lookup do the work.
	serveReadTCP = kvSpec{tcp: true, shards: 2, memoryMB: 16, keys: 600, valueSize: 1024,
		readShare: 0.95, zipf: 0.99, pipeline: 8, warmup: 400}
)

// diskMB is every shard's disk: room for the largest key set (800 8 KB
// files a shard) several times over.
const diskMB = 16

// connections is how many client connections a workload opens: two,
// or one on a single-CPU host.
func connections() int { return min(2, runtime.NumCPU()) }

// kvStream is one closed-loop request stream. It owns (is the only
// writer of) keys k with k % nstreams == id, and reads any key.
type kvStream struct {
	id, nstreams int
	spec         *kvSpec
	cl           server.Client
	ver          *versions
	names        []string
	dist         keyDist
	r            *rng
	buf          []byte
	seq          uint64

	t       tally
	samples []sample
	log     []logRec
	tr      *tracer // client spans; set only in the traced phase
	base    time.Time
	record  bool  // keep samples
	logging bool  // keep the request log (traced runs)
	logged  int   // traced-phase records logged
	phase   uint8 // phase tag for the log
	err     error
}

func (s *kvStream) nextID() uint64 {
	s.seq++
	return uint64(s.id+1)<<40 | s.seq
}

func (s *kvStream) now() int64 { return int64(time.Since(s.base)) }

// write sends key's next version.
func (s *kvStream) write(key int) error {
	v := s.ver.nextWrite(key)
	fillValue(s.buf, uint32(key), v)
	req := wire.Request{ID: s.nextID(), Op: wire.OpWrite, Shard: -1, Path: s.names[key], Data: s.buf}
	resp, err := s.send(&req, key, v, false)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK || resp.Size != int64(len(s.buf)) {
		return fmt.Errorf("write %s v%d: %v %s (size %d)", req.Path, v, resp.Status, resp.Msg, resp.Size)
	}
	s.ver.ack(key, v)
	return nil
}

// read fetches key and checks the value against the version bounds.
func (s *kvStream) read(key int) error {
	lo := s.ver.lowBound(key)
	req := wire.Request{ID: s.nextID(), Op: wire.OpRead, Shard: -1, Path: s.names[key]}
	resp, err := s.send(&req, key, 0, true)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("read %s: %v %s", req.Path, resp.Status, resp.Msg)
	}
	if err := s.ver.check(key, lo, resp.Data, s.spec.valueSize); err != nil {
		return fmt.Errorf("read %s: %w", req.Path, err)
	}
	return nil
}

// send times one request from its first send, with a client span in
// the traced phase, and logs it for the replay.
func (s *kvStream) send(req *wire.Request, key int, version uint64, isRead bool) (*wire.Response, error) {
	start := s.now()
	// The replay skips the untraced phase and stops after replayCap
	// traced requests, so the log does too.
	if s.logging && s.phase != phaseTimed && s.logged < replayCap/s.nstreams+1 {
		if s.phase == phaseTraced {
			s.logged++
		}
		r := *req
		r.Data = nil
		s.log = append(s.log, logRec{send: start, phase: s.phase, req: r, key: int32(key), version: version})
	}
	sp := s.tr.begin("client.do", -1, req.ID)
	resp, err := call(s.cl, req, &s.t)
	s.tr.end(sp)
	if s.record {
		end := s.now()
		s.samples = append(s.samples, sample{done: end, lat: end - start, read: isRead})
	}
	return resp, err
}

// step runs one op of the mix.
func (s *kvStream) step() error {
	g := s.dist.pick(s.r, s.spec.keys)
	if s.r.float() < s.spec.readShare {
		return s.read(g)
	}
	// Write the owned key in g's block of nstreams keys, which keeps the
	// write skew close to the read skew.
	k := g - g%s.nstreams + s.id
	if k >= s.spec.keys {
		k -= s.nstreams
	}
	return s.write(k)
}

// kvRun is a booted server with its client streams.
type kvRun struct {
	spec    *kvSpec
	srv     *server.Server
	clients []server.Client
	ln      net.Listener
	served  chan error
	streams []*kvStream
	ver     *versions
	names   []string
	route   map[string]int // key path -> shard
	closed  bool
}

func startKV(spec *kvSpec, o *options) (*kvRun, error) {
	srv, err := server.New(server.Config{Shards: spec.shards, Policy: rio.PolicyRio,
		Seed: o.seed, MemoryMB: spec.memoryMB, DiskMB: diskMB})
	if err != nil {
		return nil, err
	}
	run := &kvRun{spec: spec, srv: srv}
	if spec.tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return nil, err
		}
		run.ln = ln
		run.served = make(chan error, 1)
		go func() { run.served <- srv.Serve(ln) }()
	}
	for c := 0; c < connections(); c++ {
		if !spec.tcp {
			run.clients = append(run.clients, server.MemClient{S: srv})
			continue
		}
		mux, err := server.DialMux(run.ln.Addr().String())
		if err != nil {
			run.close()
			return nil, err
		}
		run.clients = append(run.clients, mux)
	}
	run.names = make([]string, spec.keys)
	run.route = map[string]int{}
	for k := range run.names {
		run.names[k] = fmt.Sprintf("/kv/k%05d", k)
		run.route[run.names[k]] = srv.ShardOf(run.names[k])
	}
	run.ver = newVersions(spec.keys)
	n := len(run.clients) * spec.pipeline
	dist := newKeyDist(spec.keys, spec.zipf)
	for i := 0; i < n; i++ {
		run.streams = append(run.streams, &kvStream{
			id: i, nstreams: n, spec: spec, cl: run.clients[i/spec.pipeline],
			ver: run.ver, names: run.names, dist: dist, r: newRNG(o.seed, uint64(i), 0x6b76),
			buf: make([]byte, spec.valueSize), base: o.base, logging: o.trace,
		})
	}
	return run, nil
}

// close stops clients, listener and server, and waits for them. It is
// idempotent.
func (run *kvRun) close() {
	if run.closed {
		return
	}
	run.closed = true
	for _, c := range run.clients {
		c.Close()
	}
	if run.ln != nil {
		run.ln.Close()
		<-run.served
	}
	run.srv.Close()
}

// each runs fn on every stream concurrently and returns the first error.
func (run *kvRun) each(fn func(s *kvStream) error) error {
	var wg sync.WaitGroup
	for _, s := range run.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(s); err != nil && s.err == nil {
				s.err = err
			}
		}()
	}
	wg.Wait()
	var errs []error
	for _, s := range run.streams {
		if s.err != nil {
			errs = append(errs, fmt.Errorf("stream %d: %w", s.id, s.err))
		}
	}
	return errors.Join(errs...)
}

// timed runs the mix on every stream for d and returns the phase's
// statistics and the streams' merged tally.
func (run *kvRun) timed(d time.Duration, phase uint8, traced bool) (phaseStats, tally, error) {
	base := run.streams[0].base
	start := int64(time.Since(base))
	clock := startCPUClock(base)
	deadline := time.Now().Add(d)
	err := run.each(func(s *kvStream) error {
		s.samples, s.t, s.record, s.phase = s.samples[:0], tally{}, true, phase
		if traced {
			s.tr = &tracer{base: s.base}
		}
		defer func() { s.record = false }()
		for time.Now().Before(deadline) {
			if err := s.step(); err != nil {
				return err
			}
		}
		return nil
	})
	end := int64(time.Since(base))
	clock.finish()
	var all []sample
	var t tally
	for _, s := range run.streams {
		all = append(all, s.samples...)
		t.add(s.t)
	}
	return summarize(all, start, end, clock), t, err
}

// serverDelta is what the server counted between two Metrics snapshots.
type serverDelta struct {
	ops, bytes, rejected uint64
	avgBatch, avgQueue   float64
	writevFramesPerCall  float64
	execP50, execP99     float64 // cumulative since boot: the histogram has no reset
}

func deltaOf(a, b server.Metrics) serverDelta {
	d := serverDelta{ops: b.Ops - a.Ops, bytes: b.Bytes - a.Bytes, execP50: b.P50us, execP99: b.P99us}
	var batches, batchSum, depthSum float64
	for i, sb := range b.Shards {
		sa := a.Shards[i]
		d.rejected += sb.Rejected - sa.Rejected
		batches += float64(sb.Batches - sa.Batches)
		batchSum += sb.AvgBatch*float64(sb.Batches) - sa.AvgBatch*float64(sa.Batches)
		depthSum += sb.AvgQueue*float64(sb.Batches) - sa.AvgQueue*float64(sa.Batches)
	}
	if batches > 0 {
		d.avgBatch = batchSum / batches
		d.avgQueue = depthSum / batches
	}
	if b.Writev != nil {
		calls, frames := b.Writev.Calls, b.Writev.Frames
		if a.Writev != nil {
			calls -= a.Writev.Calls
			frames -= a.Writev.Frames
		}
		if calls > 0 {
			d.writevFramesPerCall = float64(frames) / float64(calls)
		}
	}
	return d
}

// reconcile checks the server's request and payload totals against the
// generator's tally. Sends answered StatusAgain were refused at enqueue
// (no shard is down during a timed phase), which the server counts as
// rejections, not requests.
func reconcile(d serverDelta, t tally) error {
	if d.ops != t.attempts-t.again || d.rejected != t.again || d.bytes != t.bytes {
		return fmt.Errorf("server counted %d requests, %d rejected, %d payload bytes; generator sent %d (%d refused), %d payload bytes",
			d.ops, d.rejected, d.bytes, t.attempts, t.again, t.bytes)
	}
	return nil
}

// crashAndReboot sends OpCrash to every shard, then OpWarmboot to each,
// and returns each warm reboot's round-trip time and reported restored
// buffer count.
func crashAndReboot(cl server.Client, shards int, t *tally, log func(wire.Request)) (ms []float64, restored []int64, err error) {
	for sh := 0; sh < shards; sh++ {
		req := wire.Request{ID: uint64(sh), Op: wire.OpCrash, Shard: int32(sh)}
		log(req)
		resp, err := call(cl, &req, t)
		if err != nil {
			return nil, nil, err
		}
		if resp.Status != wire.StatusOK {
			return nil, nil, fmt.Errorf("crash shard %d: %v %s", sh, resp.Status, resp.Msg)
		}
	}
	for sh := 0; sh < shards; sh++ {
		req := wire.Request{ID: uint64(sh), Op: wire.OpWarmboot, Shard: int32(sh)}
		log(req)
		begin := time.Now()
		resp, err := call(cl, &req, t)
		took := time.Since(begin)
		if err != nil {
			return nil, nil, err
		}
		if resp.Status != wire.StatusOK {
			return nil, nil, fmt.Errorf("warmboot shard %d: %v %s", sh, resp.Status, resp.Msg)
		}
		ms = append(ms, float64(took)/1e6)
		restored = append(restored, resp.Size)
	}
	return ms, restored, nil
}

func runKV(spec *kvSpec, o *options, rep *report) error {
	run, err := startKV(spec, o)
	if err != nil {
		return err
	}
	defer run.close()
	var total tally
	defer func() { rep.attempted += total.ops }()

	// Populate: every stream writes version 1 of each key it owns.
	err = run.each(func(s *kvStream) error {
		for k := s.id; k < spec.keys; k += s.nstreams {
			if err := s.write(k); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = run.each(func(s *kvStream) error {
			for i := 0; i < spec.warmup; i++ {
				if err := s.step(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, s := range run.streams {
		total.add(s.t)
	}
	if err != nil {
		return rep.fail(err)
	}
	rep.setupDone(o)

	d := o.phaseDuration()
	m0 := run.srv.Metrics()
	st, t, err := run.timed(d, phaseTimed, false)
	total.add(t)
	if err != nil {
		return rep.fail(err)
	}
	m1 := run.srv.Metrics()
	rep.st = st
	delta := deltaOf(m0, m1)
	if err := reconcile(delta, t); err != nil {
		return rep.fail(err)
	}
	rep.server = &delta

	if o.trace {
		tst, tt, err := run.timed(d, phaseTraced, true)
		total.add(tt)
		if err != nil {
			return rep.fail(err)
		}
		rep.tracedSt = &tst
		for _, s := range run.streams {
			rep.clientSpans = append(rep.clientSpans, s.tr.spans)
			s.tr = nil
		}
	}

	// Durability epilogue: crash every shard, warm-reboot it, then read
	// back every key; each must hold exactly its last acknowledged
	// version.
	var epi tally
	ms, _, err := crashAndReboot(run.clients[0], spec.shards, &epi, func(wire.Request) {})
	if err == nil {
		rep.recoverMs = append(rep.recoverMs, ms...)
		err = run.each(func(s *kvStream) error {
			s.t = tally{}
			for k := s.id; k < spec.keys; k += s.nstreams {
				if err := s.readExact(k); err != nil {
					return err
				}
			}
			return nil
		})
		for _, s := range run.streams {
			epi.add(s.t)
		}
	}
	total.add(epi)
	if err != nil {
		return rep.fail(fmt.Errorf("durability epilogue: %w", err))
	}

	run.close()
	if o.trace {
		// Drop the server so its machines can be freed before the
		// replay boots its own.
		run.srv, run.clients = nil, nil
		for _, s := range run.streams {
			s.cl = nil
		}
		return replayKV(run, o, rep)
	}
	return nil
}

// readExact reads key after a warm reboot: it must be byte-exact at the
// last acknowledged version.
func (s *kvStream) readExact(key int) error {
	want := s.ver.lowBound(key)
	req := wire.Request{ID: s.nextID(), Op: wire.OpRead, Shard: -1, Path: s.names[key]}
	resp, err := call(s.cl, &req, &s.t)
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("read-back %s: %v %s", req.Path, resp.Status, resp.Msg)
	}
	k, v, err := parseValue(resp.Data, s.spec.valueSize)
	if err != nil {
		return fmt.Errorf("read-back %s: %w", req.Path, err)
	}
	if int(k) != key || v != want {
		return fmt.Errorf("read-back %s: key %d version %d, want key %d version %d", req.Path, k, v, key, want)
	}
	return nil
}

// replayKV replays the run's request log, in send order, on fresh shard
// machines: set-up traffic unmeasured, then up to replayCap requests of
// the traced phase measured, then a measured crash and warm reboot of
// each shard. The untraced phase is skipped: every key has one writer,
// so the replay's own last write of a key is what its reads must return
// whatever was skipped.
func replayKV(run *kvRun, o *options, rep *report) error {
	var recs []logRec
	for _, s := range run.streams {
		for _, r := range s.log {
			if r.phase == phaseSetup || r.phase == phaseTraced {
				recs = append(recs, r)
			}
		}
		s.log = nil
	}
	sortBySend(recs)
	traced := 0
	for i := range recs {
		if recs[i].phase == phaseTraced {
			traced++
		}
		if traced > replayCap {
			recs = recs[:i]
			break
		}
	}
	spec := run.spec
	rp, err := newReplayer(spec.shards, rio.Config{Policy: rio.PolicyRio, Seed: o.seed, MemoryMB: spec.memoryMB, DiskMB: diskMB},
		run.route, o.base)
	if err != nil {
		return err
	}
	buf := make([]byte, spec.valueSize)
	last := make([]uint64, spec.keys)
	rp.payload = func(rec *logRec) []byte {
		if rec.req.Op != wire.OpWrite {
			return nil
		}
		fillValue(buf, uint32(rec.key), rec.version)
		return buf
	}
	rp.check = func(rec *logRec, resp *wire.Response) error {
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("status %v %s", resp.Status, resp.Msg)
		}
		if rec.req.Op == wire.OpWrite {
			last[rec.key] = rec.version
			return nil
		}
		k, v, err := parseValue(resp.Data, spec.valueSize)
		if err != nil {
			return err
		}
		if int(k) != int(rec.key) || v != last[rec.key] {
			return fmt.Errorf("replay read key %d version %d, want key %d version %d", k, v, rec.key, last[rec.key])
		}
		return nil
	}
	if err := rp.run(recs, func(r *logRec) bool { return r.phase == phaseTraced }); err != nil {
		return rep.fail(err)
	}
	if err := rp.crashAll(); err != nil {
		return rep.fail(fmt.Errorf("replay warm reboot: %w", err))
	}
	rep.replay = rp
	return nil
}

// replayCap bounds how many timed requests a traced run replays, which
// bounds the replay's time and the span log's size.
const replayCap = 40000
