package main

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rio"
	"rio/internal/registry"
	"rio/internal/warmreboot"
	"rio/internal/wire"
)

// span is one timed interval at a layer boundary. Spans of one request
// share op; parent indexes the enclosing span in the same tracer (-1 for
// a root).
type span struct {
	name       string
	start, end int64 // ns since the run's base time
	parent     int32
	op         uint64
}

// tracer keeps spans in memory for one goroutine. A nil tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int32, op uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.base)), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
}

// layerTime is the self time of all spans of one name.
type layerTime struct {
	count  int
	selfNs int64
}

// selfTimes aggregates self time (duration minus the time covered by
// direct children; children of one span never overlap, as every tracer
// belongs to one goroutine) per span name.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		lt.count++
		lt.selfNs += s.end - s.start - child[i]
	}
	return out
}

// writeSpans writes spans as gzipped tab-separated lines.
func writeSpans(path string, groups ...[]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "group\tindex\tname\tstart_ns\tend_ns\tparent\top")
	for g, spans := range groups {
		for i, s := range spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", g, i, s.name, s.start, s.end, s.parent, s.op)
		}
	}
	err = errors.Join(w.Flush(), zw.Close(), f.Close())
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// counters are the replay machines' layer counters, summed over shards.
type counters struct {
	dataHits, dataMisses, evictions, writeBacks, shadowWrites uint64
	syscalls, metaUpdates, dcacheHits, dcacheMisses           uint64
	loads, protToggles, tlbHits, tlbMisses                    uint64
	diskReads, diskWrites, diskBytesWritten                   uint64
	heapAllocs, heapFrees                                     uint64
	simNs                                                     int64
}

func snapshot(systems []*rio.System) counters {
	var c counters
	for _, sys := range systems {
		m := sys.Machine()
		cs := m.Cache.Stats
		c.dataHits += cs.DataHits
		c.dataMisses += cs.DataMisses
		c.evictions += cs.Evictions
		c.writeBacks += cs.WriteBacks
		c.shadowWrites += cs.ShadowWrites
		fs := m.FS.Stats
		c.syscalls += fs.Syscalls
		c.metaUpdates += fs.MetaUpdates
		c.dcacheHits += fs.DcacheHits
		c.dcacheMisses += fs.DcacheMisses
		ms := m.MMU.Stats
		c.loads += ms.VirtLoads + ms.KSEGLoads
		c.protToggles += ms.ProtToggle
		c.tlbHits += ms.TLBHits
		c.tlbMisses += ms.TLBMisses
		ds := m.Disk.Stats
		c.diskReads += ds.Reads
		c.diskWrites += ds.Writes
		c.diskBytesWritten += ds.BytesWritten
		c.heapAllocs += m.Kernel.Heap.Allocs
		c.heapFrees += m.Kernel.Heap.Frees
		c.simNs += int64(sys.Elapsed())
	}
	return c
}

func (c *counters) addDelta(after, before counters) {
	c.dataHits += after.dataHits - before.dataHits
	c.dataMisses += after.dataMisses - before.dataMisses
	c.evictions += after.evictions - before.evictions
	c.writeBacks += after.writeBacks - before.writeBacks
	c.shadowWrites += after.shadowWrites - before.shadowWrites
	c.syscalls += after.syscalls - before.syscalls
	c.metaUpdates += after.metaUpdates - before.metaUpdates
	c.dcacheHits += after.dcacheHits - before.dcacheHits
	c.dcacheMisses += after.dcacheMisses - before.dcacheMisses
	c.loads += after.loads - before.loads
	c.protToggles += after.protToggles - before.protToggles
	c.tlbHits += after.tlbHits - before.tlbHits
	c.tlbMisses += after.tlbMisses - before.tlbMisses
	c.diskReads += after.diskReads - before.diskReads
	c.diskWrites += after.diskWrites - before.diskWrites
	c.diskBytesWritten += after.diskBytesWritten - before.diskBytesWritten
	c.heapAllocs += after.heapAllocs - before.heapAllocs
	c.heapFrees += after.heapFrees - before.heapFrees
	c.simNs += after.simNs - before.simNs
}

// replayer re-executes a logged request stream on one goroutine against
// shard machines it boots itself with the server's configuration,
// wrapping each layer call in a span and reading the machines' counters
// around the measured part.
type replayer struct {
	systems []*rio.System
	route   map[string]int // request path -> shard, as the server routed it
	tr      *tracer        // nil while replaying set-up traffic
	payload func(*logRec) []byte
	check   func(*logRec, *wire.Response) error

	measuring bool
	epilogue  bool // recovering outside the request stream: spans, no counters
	down      int  // shards crashed and not yet rebooted
	mark      counters
	c         counters

	ops, userBytes, wireBytes uint64

	recoveries                        int
	entries, metaRestored, dataRestor int
	liveEntries, heapLive             int
	crashPoints                       int

	reqBuf, respBuf []byte
}

func newReplayer(shards int, cfg rio.Config, route map[string]int, base time.Time) (*replayer, error) {
	systems, err := rio.NewShards(shards, cfg)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &replayer{systems: systems, route: route, tr: &tracer{base: base}}, nil
}

// setMeasuring turns span recording and counter accumulation on or off.
func (rp *replayer) setMeasuring(on bool) {
	if on == rp.measuring {
		return
	}
	if rp.down == 0 {
		if on {
			rp.mark = snapshot(rp.systems)
		} else {
			rp.c.addDelta(snapshot(rp.systems), rp.mark)
		}
	}
	rp.measuring = on
}

func (rp *replayer) tracerIfMeasuring() *tracer {
	if rp.measuring {
		return rp.tr
	}
	return nil
}

// run replays recs in order; measure says which records count.
func (rp *replayer) run(recs []logRec, measure func(*logRec) bool) error {
	for i := range recs {
		rec := &recs[i]
		rp.setMeasuring(measure(rec))
		var err error
		switch rec.req.Op {
		case wire.OpCrash:
			err = rp.crash(int(rec.req.Shard))
		case wire.OpWarmboot:
			err = rp.warmboot(int(rec.req.Shard))
		default:
			err = rp.do(rec)
		}
		if err != nil {
			return fmt.Errorf("replay of %v %s (op %d): %w", rec.req.Op, rec.req.Path, rec.req.ID, err)
		}
	}
	rp.setMeasuring(false)
	return nil
}

// do replays one data request through the wire codec and the file
// system calls the server's executor makes for it.
func (rp *replayer) do(rec *logRec) error {
	tr := rp.tracerIfMeasuring()
	req := rec.req
	req.Data = rp.payload(rec)
	root := tr.begin("replay.op", -1, req.ID)
	defer tr.end(root)

	sp := tr.begin("wire.append_request", root, req.ID)
	rp.reqBuf = wire.AppendRequest(rp.reqBuf[:0], &req)
	tr.end(sp)
	sp = tr.begin("wire.decode_request", root, req.ID)
	dreq, err := wire.DecodeRequest(rp.reqBuf)
	tr.end(sp)
	if err != nil {
		return err
	}
	sys := rp.systems[rp.route[dreq.Path]]
	resp := execTraced(sys, dreq, tr, root)

	sp = tr.begin("wire.append_response", root, req.ID)
	rp.respBuf = wire.AppendResponse(rp.respBuf[:0], resp)
	tr.end(sp)
	sp = tr.begin("wire.decode_response", root, req.ID)
	dresp, err := wire.DecodeResponse(rp.respBuf)
	tr.end(sp)
	if err != nil {
		return err
	}
	if rp.measuring {
		rp.ops++
		rp.wireBytes += uint64(len(rp.reqBuf) + len(rp.respBuf))
		if req.Op == wire.OpWrite {
			rp.userBytes += uint64(len(req.Data))
		}
	}
	return rp.check(rec, dresp)
}

// execTraced performs what server.Exec does for the ops this benchmark
// sends, with a span around each file-system call.
func execTraced(sys *rio.System, req *wire.Request, tr *tracer, parent int32) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	fail := func(err error) *wire.Response {
		resp.Status, resp.Msg = wire.StatusIO, err.Error()
		if rio.IsNotExist(err) {
			resp.Status = wire.StatusNotFound
		}
		return resp
	}
	switch req.Op {
	case wire.OpRead:
		sp := tr.begin("fs.lookup", parent, req.ID)
		ino, size, _, err := sys.Lookup(req.Path)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
		resp.Size = size
		buf := make([]byte, size)
		sp = tr.begin("fs.read", parent, req.ID)
		n, err := sys.ReadInoAt(ino, buf, 0)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
		resp.Data = buf[:n]
	case wire.OpWrite:
		sp := tr.begin("fs.lookup", parent, req.ID)
		ino, size, _, err := sys.Lookup(req.Path)
		tr.end(sp)
		off := req.Offset
		switch {
		case err == nil:
			if off < 0 {
				off = size
			}
			sp = tr.begin("fs.write", parent, req.ID)
			n, werr := sys.WriteInoAt(ino, req.Data, off)
			tr.end(sp)
			resp.Size = int64(n)
			if werr != nil {
				return fail(werr)
			}
		case rio.IsNotExist(err):
			sp = tr.begin("fs.namespace", parent, req.ID)
			f, cerr := sys.Create(req.Path)
			if errors.Is(cerr, rio.ErrNotFound) {
				if cerr = mkdirAll(sys, parentDir(req.Path)); cerr == nil {
					f, cerr = sys.Create(req.Path)
				}
			}
			tr.end(sp)
			if cerr != nil {
				return fail(cerr)
			}
			if off < 0 {
				off = 0
			}
			sp = tr.begin("fs.write", parent, req.ID)
			n, werr := f.WriteAt(req.Data, off)
			cerr = f.Close()
			tr.end(sp)
			resp.Size = int64(n)
			if werr = errors.Join(werr, cerr); werr != nil {
				return fail(werr)
			}
		default:
			return fail(err)
		}
	case wire.OpRm:
		sp := tr.begin("fs.namespace", parent, req.ID)
		err := sys.Remove(req.Path)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
	case wire.OpMv:
		sp := tr.begin("fs.namespace", parent, req.ID)
		err := sys.Rename(req.Path, req.Path2)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
	case wire.OpStat:
		sp := tr.begin("fs.lookup", parent, req.ID)
		st, err := sys.Stat(req.Path)
		tr.end(sp)
		if err != nil {
			return fail(err)
		}
		resp.Size = st.Size
	default:
		resp.Status, resp.Msg = wire.StatusInvalid, fmt.Sprintf("op %v not replayed", req.Op)
	}
	return resp
}

// mkdirAll creates dir and its missing parents, as the server does for
// a write to a path whose directories do not exist yet.
func mkdirAll(sys *rio.System, dir string) error {
	if dir == "/" {
		return nil
	}
	if st, err := sys.Stat(dir); err == nil && st.IsDir {
		return nil
	}
	if err := mkdirAll(sys, parentDir(dir)); err != nil {
		return err
	}
	if err := sys.Mkdir(dir); err != nil && !errors.Is(err, rio.ErrExists) {
		return err
	}
	return nil
}

func parentDir(p string) string {
	for i := len(p) - 1; i > 0; i-- {
		if p[i] == '/' {
			return p[:i]
		}
	}
	return "/"
}

// crash stops a replay shard. Counters pause while any shard is down, so
// recovery work is measured by its own spans, not charged to requests.
func (rp *replayer) crash(shard int) error {
	if rp.measuring && rp.down == 0 {
		rp.c.addDelta(snapshot(rp.systems), rp.mark)
	}
	if rp.measuring || rp.epilogue {
		m := rp.systems[shard].Machine()
		rp.liveEntries += m.Reg.LiveCount()
		rp.heapLive += len(m.Kernel.Heap.AllocatedBlocks())
		rp.crashPoints++
	}
	rp.systems[shard].Crash("benchmark crash")
	rp.down++
	return nil
}

// warmboot recovers a crashed replay shard the way a warm reboot does
// (dump memory, then restore from the dump), with the dump, the
// registry parse and the restore each in a span.
func (rp *replayer) warmboot(shard int) error {
	tr := rp.tracerIfMeasuring()
	if rp.epilogue {
		tr = rp.tr
	}
	sys := rp.systems[shard]
	m := sys.Machine()
	root := tr.begin("warmreboot.recover", -1, uint64(shard))
	sp := tr.begin("mem.dump", root, uint64(shard))
	dump := m.Mem.Dump()
	tr.end(sp)
	sp = tr.begin("registry.parse", root, uint64(shard))
	entries, bad := registry.Parse(dump, m.Reg.Frames())
	tr.end(sp)
	sp = tr.begin("warmreboot.from_dump", root, uint64(shard))
	rep, err := warmreboot.FromDump(m, dump)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	switch {
	case rep.VolumeLost:
		return fmt.Errorf("shard %d: volume lost: %s", shard, rep.Fsck.String())
	case bad != 0 || rep.BadEntries != 0 || rep.ChecksumMismatches != 0:
		return fmt.Errorf("shard %d: %d bad registry entries, %d checksum mismatches", shard, bad+rep.BadEntries, rep.ChecksumMismatches)
	case len(entries) != rep.Entries:
		return fmt.Errorf("shard %d: registry.Parse found %d entries, warm reboot %d", shard, len(entries), rep.Entries)
	case rep.MetaFailed+rep.DataFailed+rep.OrphanData+rep.Salvaged != 0:
		return fmt.Errorf("shard %d: warm reboot lost buffers: %s", shard, rep.String())
	}
	if tr != nil {
		rp.recoveries++
		rp.entries += rep.Entries
		rp.metaRestored += rep.MetaRestored
		rp.dataRestor += rep.DataRestored
	}
	rp.down--
	if rp.measuring && rp.down == 0 {
		rp.mark = snapshot(rp.systems)
	}
	return nil
}

// crashAll crashes and recovers every replay shard, with spans.
func (rp *replayer) crashAll() error {
	rp.epilogue = true
	defer func() { rp.epilogue = false }()
	for i := range rp.systems {
		if err := rp.crash(i); err != nil {
			return err
		}
	}
	for i := range rp.systems {
		if err := rp.warmboot(i); err != nil {
			return err
		}
	}
	return nil
}

// layers turns the replay's spans and counters into per-layer metrics.
func (rp *replayer) layers(out map[string]float64) {
	st := selfTimes(rp.tr.spans)
	mean := func(name string) float64 {
		if lt := st[name]; lt != nil && lt.count > 0 {
			return float64(lt.selfNs) / float64(lt.count)
		}
		return 0
	}
	per := func(x uint64) float64 {
		if rp.ops == 0 {
			return 0
		}
		return float64(x) / float64(rp.ops)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var codec int64
	for _, n := range []string{"wire.append_request", "wire.decode_request", "wire.append_response", "wire.decode_response"} {
		if lt := st[n]; lt != nil {
			codec += lt.selfNs
		}
	}
	c := rp.c
	out["wire.codec_ns_per_op"] = per(uint64(codec))
	out["wire.bytes_per_op"] = per(rp.wireBytes)
	out["fs.lookup_ns"] = mean("fs.lookup")
	out["fs.read_ns"] = mean("fs.read")
	out["fs.write_ns"] = mean("fs.write")
	out["fs.namespace_ns"] = mean("fs.namespace")
	out["fs.dcache_hit_ratio"] = ratio(c.dcacheHits, c.dcacheHits+c.dcacheMisses)
	out["fs.syscalls_per_op"] = per(c.syscalls)
	out["fs.meta_updates_per_op"] = per(c.metaUpdates)
	out["cache.data_hit_ratio"] = ratio(c.dataHits, c.dataHits+c.dataMisses)
	out["cache.evictions_per_op"] = per(c.evictions)
	out["cache.writebacks_per_op"] = per(c.writeBacks)
	out["cache.shadow_writes_per_op"] = per(c.shadowWrites)
	out["kernel.heap_allocs_per_op"] = per(c.heapAllocs)
	out["kernel.heap_frees_per_op"] = per(c.heapFrees)
	out["mmu.loads_per_op"] = per(c.loads)
	out["mmu.prot_toggles_per_op"] = per(c.protToggles)
	out["mmu.tlb_miss_ratio"] = ratio(c.tlbMisses, c.tlbHits+c.tlbMisses)
	out["disk.reads_per_op"] = per(c.diskReads)
	out["disk.writes_per_op"] = per(c.diskWrites)
	out["disk.write_amplification"] = ratio(c.diskBytesWritten, rp.userBytes)
	out["sim.us_per_op"] = per(uint64(c.simNs)) / 1e3
	if rp.crashPoints > 0 {
		out["registry.live_entries"] = float64(rp.liveEntries) / float64(rp.crashPoints)
		out["kernel.heap_live_blocks"] = float64(rp.heapLive) / float64(rp.crashPoints)
	}
	if rp.recoveries > 0 {
		n := float64(rp.recoveries)
		parse := float64(st["registry.parse"].selfNs) / n / 1e6
		out["warmreboot.dump_ms"] = float64(st["mem.dump"].selfNs) / n / 1e6
		out["warmreboot.registry_parse_ms"] = parse
		out["warmreboot.restore_ms"] = float64(st["warmreboot.from_dump"].selfNs)/n/1e6 - parse
		out["warmreboot.entries"] = float64(rp.entries) / n
		out["warmreboot.meta_restored"] = float64(rp.metaRestored) / n
		out["warmreboot.data_restored"] = float64(rp.dataRestor) / n
	}
}

// layerTable renders self time per span name, plus the counters with
// their bases.
func (rp *replayer) layerTable() string {
	st := selfTimes(rp.tr.spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	var b []byte
	b = fmt.Appendf(b, "  %-26s %9s %12s %12s\n", "span", "count", "self_ms", "self_ns/call")
	for _, n := range names {
		lt := st[n]
		b = fmt.Appendf(b, "  %-26s %9d %12.2f %12.0f\n", n, lt.count, float64(lt.selfNs)/1e6, float64(lt.selfNs)/float64(lt.count))
	}
	c := rp.c
	b = fmt.Appendf(b, "  replayed ops %d (base of every per-op ratio); user bytes written %d; wire bytes %d\n", rp.ops, rp.userBytes, rp.wireBytes)
	b = fmt.Appendf(b, "  cache: %d data hits / %d data lookups; %d evictions, %d write-backs, %d shadow writes\n",
		c.dataHits, c.dataHits+c.dataMisses, c.evictions, c.writeBacks, c.shadowWrites)
	b = fmt.Appendf(b, "  fs: %d syscalls, %d meta updates, %d dcache hits / %d name lookups\n",
		c.syscalls, c.metaUpdates, c.dcacheHits, c.dcacheHits+c.dcacheMisses)
	b = fmt.Appendf(b, "  mmu: %d loads, %d protection toggles, %d TLB misses / %d translations\n",
		c.loads, c.protToggles, c.tlbMisses, c.tlbHits+c.tlbMisses)
	b = fmt.Appendf(b, "  disk: %d reads, %d writes, %d bytes written; kernel heap: %d mallocs, %d frees\n",
		c.diskReads, c.diskWrites, c.diskBytesWritten, c.heapAllocs, c.heapFrees)
	b = fmt.Appendf(b, "  sim: %.3f simulated s; warm reboots measured %d over %d crash points\n",
		float64(c.simNs)/1e9, rp.recoveries, rp.crashPoints)
	return string(b)
}
