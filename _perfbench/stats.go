package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"ygm/internal/collective"
	"ygm/internal/obs"
	"ygm/internal/transport"
	"ygm/internal/ygm"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between the closest ranks, or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// nsTo converts span durations in ns to float values in units of unit ns.
func nsTo(ns []int64, unit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / unit
	}
	return out
}

// setupWorlds is how many set-up-only worlds the real-time workloads
// run before their measured worlds, so that setup_s is a median of
// enough samples.
const setupWorlds = 45

// bulkShare is the share of a measured world's time that its bulk phase
// repeats for; the steps take the rest. A share of the time rather than
// a fixed count keeps both phases sampled when tracing slows one of them
// more than the other.
const bulkShare = 0.25

// deadlines returns when a measured world's bulk phase and its steps
// stop repeating, counted from the end of its set-up.
func deadlines(from time.Time, budget time.Duration) (bulkStop, stopAt time.Time) {
	return from.Add(time.Duration(bulkShare * float64(budget))), from.Add(budget)
}

// rank0Before reports, on every rank, whether this is the first
// iteration or rank 0's clock still reads before until. It is one
// MaxU64 allreduce, so every rank leaves a timed loop after the same
// iteration.
func rank0Before(comm *collective.Comm, t *rankTrace, first bool, until time.Time) bool {
	var flag [1]uint64
	if comm.Index() == 0 && (first || time.Now().Before(until)) {
		flag[0] = 1
	}
	t.begin(kAllreduce)
	more := comm.AllreduceU64(flag[:], collective.MaxU64)[0]
	t.end()
	return more != 0
}

// slowestSetup is a world's set-up time: every rank has passed the
// first collective once the slowest has, done being when each did.
func slowestSetup(call time.Time, done []time.Time) float64 {
	return latest(done).Sub(call).Seconds()
}

// latest returns the latest of ts.
func latest(ts []time.Time) time.Time {
	var last time.Time
	for _, t := range ts {
		if t.After(last) {
			last = t
		}
	}
	return last
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB returns the process's resident high-water mark (the same
// figure as VmHWM), from getrusage.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pass is the outcome of running one workload for a time budget, either
// untraced (end-to-end metrics) or traced (per-layer metrics).
//
// Every workload has the same two phases, which is what lets one set of
// end-to-end metrics describe all of them: a bulk phase (one
// fire-and-forget record stream ending in one quiescence) and repeated
// steps (the unit of work a user waits on).
type pass struct {
	setup     []float64 // seconds per world, first Run call to first collective
	bulk      []float64 // items per second, one per bulk phase
	steps     []float64 // step latency, ms
	stepItems float64   // items the steps covered
	stepSecs  float64   // seconds the steps took
	// bulkRecords counts the mailbox records the bulk phases sent.
	bulkRecords float64
	attempted   int64
	failed      int64
	rssMiB      float64

	// Allocation counts over the bulk phases and over the steps
	// (process-wide runtime.MemStats.Mallocs deltas taken at phase
	// boundaries), with the operations they cover.
	bulkMallocs, stepMallocs uint64
	stepOps                  float64

	// waitEmpties counts the WaitEmpty / Engine.Barrier calls each rank
	// made, summed over ranks: the denominator of termination
	// generations per quiescence.
	waitEmpties float64

	rep reportAgg
	tr  *traceAgg // nil on an untraced pass
}

// reportAgg folds the transport reports and mailbox counters of every
// world in a pass.
type reportAgg struct {
	worlds     int
	ranks      int
	time, wait float64
	util       []float64
	totals     transport.Totals
	metrics    obs.Snapshot
	workerUtil []float64
	mailbox    ygm.Stats
}

func (a *reportAgg) addReport(rep *transport.Report) {
	a.ranks += len(rep.Ranks)
	for _, rr := range rep.Ranks {
		a.time += rr.Time
		a.wait += rr.Wait
	}
	t := rep.Totals()
	a.totals.LocalMsgs += t.LocalMsgs
	a.totals.LocalBytes += t.LocalBytes
	a.totals.RemoteMsgs += t.RemoteMsgs
	a.totals.RemoteBytes += t.RemoteBytes
	a.totals.DataLocalMsgs += t.DataLocalMsgs
	a.totals.DataLocalBytes += t.DataLocalBytes
	a.totals.DataRemoteMsgs += t.DataRemoteMsgs
	a.totals.DataRemoteBytes += t.DataRemoteBytes
	a.metrics = a.metrics.Merge(rep.Metrics())
	if g, ok := rep.Sched.Gauges["sched.worker_utilization"]; ok {
		a.workerUtil = append(a.workerUtil, g.Last)
	}
}

// addWorld folds one world: its reports (one per process-local rank
// set; two for the in-process TCP pair) and every rank's mailbox stats.
func (a *reportAgg) addWorld(reps []*transport.Report, mailboxes []ygm.Stats) {
	a.worlds++
	var busy, span float64
	ranks := 0
	for _, rep := range reps {
		a.addReport(rep)
		for _, rr := range rep.Ranks {
			busy += rr.Busy
		}
		if m := rep.Makespan(); m > span {
			span = m
		}
		ranks += len(rep.Ranks)
	}
	// Utilization over the whole world, also when it was assembled from
	// several per-process reports.
	a.util = append(a.util, ratio(busy, span*float64(ranks)))
	for _, s := range mailboxes {
		a.mailbox.Sends += s.Sends
		a.mailbox.Broadcasts += s.Broadcasts
		a.mailbox.Delivered += s.Delivered
		a.mailbox.Flushes += s.Flushes
		a.mailbox.HopsSent += s.HopsSent
		a.mailbox.HopsRecv += s.HopsRecv
		a.mailbox.Generations += s.Generations
		a.mailbox.EmptyRoundMsgs += s.EmptyRoundMsgs
	}
}
