package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"rio/internal/server"
	"rio/internal/wire"
)

// tally is a stream's own count of what it sent, for reconciliation
// with the server's counters.
type tally struct {
	ops      uint64 // operations, each counted once however often it was sent
	attempts uint64 // every send, retries included
	again    uint64 // sends answered StatusAgain
	bytes    uint64 // request plus response payload of sends not answered StatusAgain
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.attempts += o.attempts
	t.again += o.again
	t.bytes += o.bytes
}

// maxAgain bounds the StatusAgain retries of one request.
const maxAgain = 64

// call sends req until the answer is something other than StatusAgain,
// backing off between tries. The caller times the whole call, so a
// request that needed retries is timed from its first send.
func call(cl server.Client, req *wire.Request, t *tally) (*wire.Response, error) {
	t.ops++
	delay := 50 * time.Microsecond
	for try := 0; ; try++ {
		resp, err := cl.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%v %s: transport: %w", req.Op, req.Path, err)
		}
		t.attempts++
		if resp.Status != wire.StatusAgain {
			t.bytes += uint64(len(req.Data) + len(resp.Data))
			return resp, nil
		}
		t.again++
		if try == maxAgain {
			return nil, fmt.Errorf("%v %s: still StatusAgain after %d tries: %s", req.Op, req.Path, try+1, resp.Msg)
		}
		time.Sleep(delay)
		if delay < 20*time.Millisecond {
			delay *= 2
		}
	}
}

// sample is one timed client operation: when it completed (ns since the
// run's base time) and how long it took.
type sample struct {
	done int64
	lat  int64
	read bool
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windows is the number of equal slices a timed phase is cut into. Each
// end-to-end figure is the median of its per-window values, so one
// scheduler stall moves one window, not the result.
const windows = 10

// phaseStats summarises a timed phase's samples.
type phaseStats struct {
	ops                  int
	reads, writes        int
	seconds              float64
	opsPerS              float64 // median over windows
	p50, p99             float64 // µs, median over windows
	readP50, readP99     float64
	writeP50, writeP99   float64
	minWindowOps         int
	cpuUsPerOp           float64 // process CPU µs per op, median over windows
	windowOpsPerS        []float64
	windowP50, windowP99 []float64
}

// summarize cuts [start, end) into windows by completion time; clock
// gives each window's CPU time.
func summarize(samples []sample, start, end int64, clock *cpuClock) phaseStats {
	st := phaseStats{ops: len(samples), seconds: float64(end-start) / 1e9}
	width := float64(end-start) / windows
	all := make([][]float64, windows)
	rd := make([][]float64, windows)
	wr := make([][]float64, windows)
	for _, s := range samples {
		w := int(float64(s.done-start) / width)
		if w < 0 {
			w = 0
		}
		if w >= windows {
			w = windows - 1
		}
		us := float64(s.lat) / 1e3
		all[w] = append(all[w], us)
		if s.read {
			rd[w] = append(rd[w], us)
			st.reads++
		} else {
			wr[w] = append(wr[w], us)
			st.writes++
		}
	}
	var rp50, rp99, wp50, wp99, cpu []float64
	st.minWindowOps = math.MaxInt
	for w := 0; w < windows; w++ {
		sort.Float64s(all[w])
		sort.Float64s(rd[w])
		sort.Float64s(wr[w])
		st.windowOpsPerS = append(st.windowOpsPerS, float64(len(all[w]))/(width/1e9))
		st.windowP50 = append(st.windowP50, quantile(all[w], 0.50))
		st.windowP99 = append(st.windowP99, quantile(all[w], 0.99))
		if len(rd[w]) > 0 {
			rp50 = append(rp50, quantile(rd[w], 0.50))
			rp99 = append(rp99, quantile(rd[w], 0.99))
		}
		if len(wr[w]) > 0 {
			wp50 = append(wp50, quantile(wr[w], 0.50))
			wp99 = append(wp99, quantile(wr[w], 0.99))
		}
		a, b := float64(start)+float64(w)*width, float64(start)+float64(w+1)*width
		if n := len(all[w]); n > 0 {
			cpu = append(cpu, (clock.cpuAt(int64(b))-clock.cpuAt(int64(a)))/1e3/float64(n))
		}
		if len(all[w]) < st.minWindowOps {
			st.minWindowOps = len(all[w])
		}
	}
	st.opsPerS = median(st.windowOpsPerS)
	st.cpuUsPerOp = median(cpu)
	st.p50 = median(st.windowP50)
	st.p99 = median(st.windowP99)
	st.readP50, st.readP99 = median(rp50), median(rp99)
	st.writeP50, st.writeP99 = median(wp50), median(wp99)
	return st
}

// logRec is one request as sent, kept in traced runs so the replay can
// re-issue the same stream. Payloads are not stored: they are
// regenerated from (key, version) or (dataSeed, dataLen).
type logRec struct {
	send    int64 // ns since the run's base time
	phase   uint8
	req     wire.Request // Data nil
	key     int32        // key-value workloads: key index; -1 otherwise
	version uint64       // key-value workloads: value version written
	// crash-recover: payload generator and the expected answer.
	dataSeed   uint64
	dataLen    int32
	wantStatus wire.Status
	wantSum    uint64 // fnv-1a of the expected read bytes
}

// Phases of a run, in order.
const (
	phaseSetup  uint8 = iota // populate and warm-up
	phaseTimed               // the untraced timed phase
	phaseTraced              // the traced timed phase (--trace 1 only)
)

// sortBySend orders a merged request log by send time; each stream's
// own records are already in order, and a stable sort keeps them so.
func sortBySend(recs []logRec) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].send < recs[j].send })
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// cpuNow returns the process's CPU time so far: user plus system, all
// threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuClock samples the process's CPU time every cpuTick during a timed
// phase, so that each window's CPU cost can be read off it.
type cpuClock struct {
	base time.Time
	at   []int64 // ns since base
	cpu  []time.Duration
	stop chan struct{}
	done chan struct{}
}

const cpuTick = 20 * time.Millisecond

func startCPUClock(base time.Time) *cpuClock {
	k := &cpuClock{base: base, stop: make(chan struct{}), done: make(chan struct{})}
	k.sample()
	go func() {
		defer close(k.done)
		t := time.NewTicker(cpuTick)
		defer t.Stop()
		for {
			select {
			case <-k.stop:
				k.sample()
				return
			case <-t.C:
				k.sample()
			}
		}
	}()
	return k
}

func (k *cpuClock) sample() {
	k.at = append(k.at, int64(time.Since(k.base)))
	k.cpu = append(k.cpu, cpuNow())
}

// finish takes a last sample and stops the sampler.
func (k *cpuClock) finish() {
	close(k.stop)
	<-k.done
}

// cpuAt interpolates the process CPU time at t (ns since base).
func (k *cpuClock) cpuAt(t int64) float64 {
	i := sort.Search(len(k.at), func(i int) bool { return k.at[i] >= t })
	switch {
	case i == 0:
		return float64(k.cpu[0])
	case i == len(k.at):
		return float64(k.cpu[len(k.cpu)-1])
	}
	a, b := k.at[i-1], k.at[i]
	f := float64(t-a) / float64(b-a)
	return float64(k.cpu[i-1]) + f*float64(k.cpu[i]-k.cpu[i-1])
}
