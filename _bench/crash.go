package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"rio"
	"rio/internal/server"
	"rio/internal/wire"
)

// crSpec is the make-up of the crash-recover workload.
type crSpec struct {
	shards, memoryMB int
	pipeline         int // streams per connection
	dirs, files      int // each stream's namespace: dirs x files slots
	burst            int // namespace ops per stream per cycle
	maxFile          int // appends past this size overwrite instead
}

// crashRecover keeps each shard's dirty set (at most ~2.5 MB: half the
// 512 slots live, two pages each, over two shards) several times under
// its 16 MB of memory and inside its data cache, so recovery work that
// grows with memory size shows apart from work that grows with the
// dirty set, and nothing is evicted.
var crashRecover = crSpec{shards: 2, memoryMB: 16, pipeline: 4, dirs: 4, files: 16, burst: 60, maxFile: 16384}

type crSlot struct {
	path  string
	shard int
	live  bool
	data  []byte
}

// crStream owns a private namespace and is its only writer, so its model
// of that namespace is exact once its requests are answered.
type crStream struct {
	id    int
	spec  *crSpec
	cl    server.Client
	r     *rng
	seed  uint64
	seq   uint64
	slots []crSlot

	t       tally
	samples []sample
	log     []logRec
	tr      *tracer
	base    time.Time
	record  bool
	logging bool
	phase   uint8
	err     error
}

// payload returns n bytes derived from seed.
func payload(seed uint64, n int) []byte {
	b := make([]byte, (n+7)&^7)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], finalize(seed+uint64(i)))
	}
	return b[:n]
}

func (s *crStream) nextID() uint64 {
	s.seq++
	return uint64(s.id+1)<<40 | s.seq
}

// send times req from its first send and logs it for the replay along
// with the answer the model expects.
func (s *crStream) send(req *wire.Request, dataSeed uint64, want wire.Status, wantData []byte, isRead bool) (*wire.Response, error) {
	start := int64(time.Since(s.base))
	if s.logging {
		r := *req
		r.Data = nil
		rec := logRec{send: start, phase: s.phase, req: r, key: -1, dataSeed: dataSeed,
			dataLen: int32(len(req.Data)), wantStatus: want}
		if wantData != nil {
			rec.wantSum = fnv64(wantData)
		}
		s.log = append(s.log, rec)
	}
	sp := s.tr.begin("client.do", -1, req.ID)
	resp, err := call(s.cl, req, &s.t)
	s.tr.end(sp)
	if s.record {
		end := int64(time.Since(s.base))
		s.samples = append(s.samples, sample{done: end, lat: end - start, read: isRead})
	}
	if err != nil {
		return nil, err
	}
	if resp.Status != want {
		return nil, fmt.Errorf("%v %s %s: %v %s, want %v", req.Op, req.Path, req.Path2, resp.Status, resp.Msg, want)
	}
	return resp, nil
}

// write sends n fresh bytes to slot i at off (-1 appends).
func (s *crStream) write(i int, n int, off int64) error {
	sl := &s.slots[i]
	seed := mix(s.seed, s.seq)
	data := payload(seed, n)
	req := wire.Request{ID: s.nextID(), Op: wire.OpWrite, Shard: -1, Path: sl.path, Offset: off, Data: data}
	resp, err := s.send(&req, seed, wire.StatusOK, nil, false)
	if err != nil {
		return err
	}
	if resp.Size != int64(n) {
		return fmt.Errorf("write %s: %d bytes acknowledged, %d sent", sl.path, resp.Size, n)
	}
	switch {
	case off < 0:
		sl.data = append(sl.data, data...)
	default:
		if end := int(off) + n; end > len(sl.data) {
			sl.data = append(sl.data, make([]byte, end-len(sl.data))...)
		}
		copy(sl.data[off:], data)
	}
	sl.live = true
	return nil
}

func (s *crStream) pick(live bool) int {
	var idx []int
	for i := range s.slots {
		if s.slots[i].live == live {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[s.r.intn(len(idx))]
}

// step runs one namespace op: create, overwrite, append, rename or
// remove, chosen so that every op is valid against the model.
func (s *crStream) step() error {
	live := 0
	for i := range s.slots {
		if s.slots[i].live {
			live++
		}
	}
	choice := s.r.intn(100)
	if live < len(s.slots)/2 {
		choice = 99
	}
	i := s.pick(true)
	switch {
	case choice >= 80 || i < 0: // create
		j := s.pick(false)
		if j < 0 {
			return s.write(i, s.r.between(512, 4096), 0)
		}
		return s.write(j, s.r.between(512, 4096), 0)
	case choice < 25: // overwrite from the start
		return s.write(i, s.r.between(512, 4096), 0)
	case choice < 50: // append
		n := s.r.between(256, 2048)
		if len(s.slots[i].data)+n > s.spec.maxFile {
			return s.write(i, n, 0)
		}
		return s.write(i, n, -1)
	case choice < 65: // rename to a free slot on the same shard
		var free []int
		for j := range s.slots {
			if !s.slots[j].live && s.slots[j].shard == s.slots[i].shard {
				free = append(free, j)
			}
		}
		if len(free) == 0 {
			return s.write(i, s.r.between(512, 4096), 0)
		}
		j := free[s.r.intn(len(free))]
		req := wire.Request{ID: s.nextID(), Op: wire.OpMv, Shard: -1, Path: s.slots[i].path, Path2: s.slots[j].path}
		if _, err := s.send(&req, 0, wire.StatusOK, nil, false); err != nil {
			return err
		}
		s.slots[j].live, s.slots[j].data = true, s.slots[i].data
		s.slots[i].live, s.slots[i].data = false, nil
		return nil
	default: // remove
		req := wire.Request{ID: s.nextID(), Op: wire.OpRm, Shard: -1, Path: s.slots[i].path}
		if _, err := s.send(&req, 0, wire.StatusOK, nil, false); err != nil {
			return err
		}
		s.slots[i].live, s.slots[i].data = false, nil
		return nil
	}
}

// check reads back the whole namespace: every live file byte-exact, and
// every other slot (removed, renamed away, never made) not found.
func (s *crStream) check() error {
	for i := range s.slots {
		sl := &s.slots[i]
		if !sl.live {
			req := wire.Request{ID: s.nextID(), Op: wire.OpStat, Shard: -1, Path: sl.path}
			if _, err := s.send(&req, 0, wire.StatusNotFound, nil, true); err != nil {
				return err
			}
			continue
		}
		req := wire.Request{ID: s.nextID(), Op: wire.OpRead, Shard: -1, Path: sl.path}
		resp, err := s.send(&req, 0, wire.StatusOK, sl.data, true)
		if err != nil {
			return err
		}
		if resp.Size != int64(len(sl.data)) || !bytes.Equal(resp.Data, sl.data) {
			return fmt.Errorf("read %s after warm reboot: %d bytes (size %d), want %d bytes as written",
				sl.path, len(resp.Data), resp.Size, len(sl.data))
		}
	}
	return nil
}

type crRun struct {
	spec    *crSpec
	srv     *server.Server
	cl      server.Client
	streams []*crStream
	admin   []logRec       // crash and warmboot requests, for the replay
	route   map[string]int // slot path -> shard
	recover []float64
	t       tally // the admin requests' tally
}

func (run *crRun) each(fn func(*crStream) error) error {
	var wg sync.WaitGroup
	for _, s := range run.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(s); err != nil && s.err == nil {
				s.err = fmt.Errorf("stream %d: %w", s.id, err)
			}
		}()
	}
	wg.Wait()
	for _, s := range run.streams {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// cycle runs one burst, crashes and warm-reboots every shard, and checks
// the namespace. While the namespace fits the data cache every live data
// page is dirty at the crash, so each warm reboot must report at least
// the model's live data pages on that shard restored.
func (run *crRun) cycle(phase uint8, o *options) error {
	err := run.each(func(s *crStream) error {
		s.phase = phase
		for i := 0; i < run.spec.burst; i++ {
			if err := s.step(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pages := make([]int64, run.spec.shards)
	for _, s := range run.streams {
		for _, sl := range s.slots {
			if sl.live {
				pages[sl.shard] += int64((len(sl.data) + 8191) / 8192)
			}
		}
	}
	ms, restored, err := crashAndReboot(run.cl, run.spec.shards, &run.t, func(r wire.Request) {
		if o.trace {
			run.admin = append(run.admin, logRec{send: int64(time.Since(o.base)), phase: phase, req: r, key: -1})
		}
	})
	if err != nil {
		return err
	}
	for sh, n := range restored {
		if n < pages[sh] {
			return fmt.Errorf("shard %d warm reboot restored %d buffers, but %d live data pages were dirty", sh, n, pages[sh])
		}
	}
	if phase == phaseTimed || phase == phaseTraced {
		run.recover = append(run.recover, ms...)
	}
	return run.each(func(s *crStream) error { return s.check() })
}

// cycles runs whole cycles until d has passed (at least one).
func (run *crRun) cycles(d time.Duration, phase uint8, o *options) (phaseStats, tally, int, error) {
	for _, s := range run.streams {
		s.samples, s.t, s.record = s.samples[:0], tally{}, true
		if phase == phaseTraced {
			s.tr = &tracer{base: o.base}
		}
	}
	run.t = tally{}
	start := int64(time.Since(o.base))
	clock := startCPUClock(o.base)
	deadline := time.Now().Add(d)
	n := 0
	var err error
	for n == 0 || time.Now().Before(deadline) {
		if err = run.cycle(phase, o); err != nil {
			break
		}
		n++
	}
	end := int64(time.Since(o.base))
	clock.finish()
	var all []sample
	t := run.t
	for _, s := range run.streams {
		all = append(all, s.samples...)
		t.add(s.t)
		s.record = false
	}
	st := summarize(all, start, end, clock)
	return st, t, n, err
}

func runCrashRecover(o *options, rep *report) error {
	spec := &crashRecover
	srv, err := server.New(server.Config{Shards: spec.shards, Policy: rio.PolicyRio, Seed: o.seed,
		MemoryMB: spec.memoryMB, DiskMB: diskMB})
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	run := &crRun{spec: spec, srv: srv, cl: server.MemClient{S: srv}, route: map[string]int{}}
	n := connections() * spec.pipeline
	for i := 0; i < n; i++ {
		s := &crStream{id: i, spec: spec, cl: server.MemClient{S: srv}, r: newRNG(o.seed, uint64(i), 0x6372),
			seed: mix(o.seed, uint64(i), 0x64617461), base: o.base, logging: o.trace}
		for d := 0; d < spec.dirs; d++ {
			for f := 0; f < spec.files; f++ {
				p := fmt.Sprintf("/cr/s%d/d%d/f%02d", i, d, f)
				s.slots = append(s.slots, crSlot{path: p, shard: srv.ShardOf(p)})
				run.route[p] = srv.ShardOf(p)
			}
		}
		run.streams = append(run.streams, s)
	}
	var total tally
	defer func() { rep.attempted += total.ops }()

	// Set-up: fill half of every namespace, then one untimed cycle.
	err = run.each(func(s *crStream) error {
		for i := 0; i < len(s.slots); i += 2 {
			if err := s.write(i, s.r.between(512, 4096), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = run.cycle(phaseSetup, o)
	}
	total.add(run.t)
	for _, s := range run.streams {
		total.add(s.t)
	}
	if err != nil {
		return rep.fail(err)
	}
	rep.setupDone(o)

	m0 := srv.Metrics()
	st, t, ncycles, err := run.cycles(o.phaseDuration(), phaseTimed, o)
	total.add(t)
	if err != nil {
		return rep.fail(err)
	}
	m1 := srv.Metrics()
	rep.st = st
	delta := deltaOf(m0, m1)
	if err := reconcile(delta, t); err != nil {
		return rep.fail(err)
	}
	rep.server = &delta
	rep.notes = append(rep.notes, fmt.Sprintf("%d timed cycles of %d namespace ops per stream x %d streams, crash + warm reboot of %d shards, full namespace check",
		ncycles, spec.burst, n, spec.shards))

	if o.trace {
		tst, tt, _, err := run.cycles(o.phaseDuration(), phaseTraced, o)
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
	rep.recoverMs = run.recover
	srv.Close()
	if o.trace {
		// Drop the server so its machines can be freed before the
		// replay boots its own.
		run.srv, run.cl, srv = nil, nil, nil
		for _, s := range run.streams {
			s.cl = nil
		}
		return replayCrash(run, o, rep)
	}
	return nil
}

// replayCrash replays every request of the run, cycles and recoveries
// included (each op is valid only against the namespace the earlier ones
// left), measuring the traced phase's cycles.
func replayCrash(run *crRun, o *options, rep *report) error {
	recs := append([]logRec(nil), run.admin...)
	for _, s := range run.streams {
		recs = append(recs, s.log...)
		s.log = nil
	}
	sortBySend(recs)
	spec := run.spec
	rp, err := newReplayer(spec.shards, rio.Config{Policy: rio.PolicyRio, Seed: o.seed, MemoryMB: spec.memoryMB, DiskMB: diskMB},
		run.route, o.base)
	if err != nil {
		return err
	}
	rp.payload = func(rec *logRec) []byte {
		if rec.req.Op != wire.OpWrite {
			return nil
		}
		return payload(rec.dataSeed, int(rec.dataLen))
	}
	rp.check = func(rec *logRec, resp *wire.Response) error {
		if resp.Status != rec.wantStatus {
			return fmt.Errorf("status %v %s, want %v", resp.Status, resp.Msg, rec.wantStatus)
		}
		if rec.req.Op == wire.OpRead && fnv64(resp.Data) != rec.wantSum {
			return fmt.Errorf("read %d bytes that differ from the model", len(resp.Data))
		}
		return nil
	}
	if err := rp.run(recs, func(r *logRec) bool { return r.phase == phaseTraced }); err != nil {
		return rep.fail(err)
	}
	if rp.c.evictions != 0 {
		return rep.fail(fmt.Errorf("replay evicted %d buffers: the namespace no longer fits the data cache", rp.c.evictions))
	}
	rep.replay = rp
	return nil
}
