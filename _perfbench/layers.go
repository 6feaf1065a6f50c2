package main

import (
	"fmt"
	"io"
)

// perLayer derives the per-layer metrics of a traced pass p; base is the
// untraced pass measured just before it in the same process, which
// supplies the allocation counts (tracing allocates) and the baseline of
// the tracing overhead. Every workload reports every metric: a layer the
// workload bypasses reads 0.
func perLayer(base, p *pass) []metric {
	tr, rep := p.tr, &p.rep
	m := rep.metrics
	records := float64(rep.mailbox.Sends)
	perKRec := func(v float64) float64 { return ratio(v, records) * 1e3 }
	selfPer := func(k spanKind) float64 { return ratio(float64(tr.self[k]), float64(tr.count[k])) }
	totalPerItem := func(k spanKind) float64 { return ratio(float64(tr.total[k]), float64(tr.items[k])) }
	p50 := func(k spanKind, unit float64) float64 { return percentile(nsTo(tr.durs[k], unit), 0.5) }
	pushes := float64(m.Counter("inbox.pushes"))
	spins, parks := float64(m.Counter("inbox.spin_hits")), float64(m.Counter("inbox.parks"))
	dataPkts := float64(rep.totals.DataLocalMsgs + rep.totals.DataRemoteMsgs)
	// Only the container workload's steps are container operations.
	containerAllocs := 0.0
	if tr.count[kFetch] > 0 {
		containerAllocs = ratio(float64(base.stepMallocs), base.stepOps)
	}

	out := []metric{
		{"transport.run_setup_ms", "ms", median(tr.runSetup) * 1e3},
		{"transport.utilization", "ratio", median(rep.util)},
		{"transport.wait_share", "ratio", ratio(rep.wait, rep.time)},
		{"transport.remote_bytes_per_record", "B", ratio(float64(rep.totals.RemoteBytes), records)},
		{"transport.avg_remote_msg_bytes", "B", rep.totals.AvgRemoteMsgBytes()},
	}
	for c, name := range pktClassNames {
		out = append(out, metric{"transport.packets." + name, "1/krec", perKRec(float64(tr.pkts[c]))})
	}
	out = append(out,
		metric{"inbox.wakeups_per_push", "ratio", ratio(float64(m.Counter("inbox.wakeups")), pushes)},
		metric{"inbox.spin_hit_ratio", "ratio", ratio(spins, spins+parks)},
		metric{"inbox.parks", "1/krec", perKRec(parks)},
		metric{"inbox.max_depth", "count", m.Gauges["inbox.max_depth"].Max},

		metric{"sched.dispatches_per_rank", "count", ratio(float64(m.Counter("sched.dispatches")), float64(rep.ranks))},
		metric{"sched.worker_utilization", "ratio", median(rep.workerUtil)},
		metric{"sched.handoffs", "1/rank", ratio(float64(m.Counter("sched.handoffs")), float64(rep.ranks))},
		metric{"sched.steals", "1/rank", ratio(float64(m.Counter("sched.steals")), float64(rep.ranks))},

		metric{"wire.inject_ns", "ns", totalPerItem(kInject)},
		metric{"wire.inject_share", "ratio", ratio(float64(tr.total[kInject])/1e9, tr.wall)},
		metric{"wire.bytes_per_packet", "B", ratio(float64(tr.injBytes), float64(tr.injPkts))},
		metric{"wire.start_ms", "ms", median(tr.wireStart) * 1e3},
		metric{"wire.finish_ms", "ms", median(tr.wireFinish) * 1e3},

		metric{"machine.hops_per_record", "ratio", ratio(float64(rep.mailbox.HopsSent), records)},

		metric{"codec.encode_ns", "ns", totalPerItem(kEncode)},
		metric{"codec.decode_ns", "ns", totalPerItem(kDecode)},

		metric{"ygm.send_ns", "ns", selfPer(kSend)},
		metric{"ygm.waitempty_us_p50", "us", p50(kWaitEmpty, 1e3)},
		metric{"ygm.waitempty_us_p90", "us", percentile(nsTo(tr.durs[kWaitEmpty], 1e3), 0.9)},
		metric{"ygm.records_per_packet", "ratio", ratio(float64(rep.mailbox.HopsSent), dataPkts)},
	)
	for _, cause := range []string{"capacity", "forward", "drain", "explicit"} {
		out = append(out, metric{"ygm.flush." + cause, "1/krec", perKRec(float64(m.Counter("ygm.flush." + cause)))})
	}
	out = append(out,
		metric{"ygm.empty_round_msgs", "1/krec", perKRec(float64(rep.mailbox.EmptyRoundMsgs))},
		metric{"ygm.allocs_per_record", "count", ratio(float64(base.bulkMallocs), base.bulkRecords)},
		metric{"term.generations_per_waitempty", "ratio", ratio(float64(m.Counter("term.generations")), p.waitEmpties)},

		metric{"collective.allreduce_us_p50", "us", p50(kAllreduce, 1e3)},
		metric{"collective.barrier_us_p50", "us", p50(kBarrier, 1e3)},

		metric{"container.async_incr_ns", "ns", selfPer(kIncr)},
		metric{"container.async_fetch_ns", "ns", selfPer(kFetch)},
		metric{"container.barrier_ms_p50", "ms", p50(kEngBarrier, 1e6)},
		metric{"container.partition_ns", "ns", totalPerItem(kPartition)},
		metric{"container.allocs_per_op", "count", containerAllocs},

		metric{"app.handler_ns", "ns", selfPer(kHandler)},
	)
	for _, l := range layers {
		out = append(out, metric{"self_share." + l, "ratio", ratio(tr.layerBusy[l], tr.wall)})
	}
	out = append(out,
		metric{"self_share.blocked", "ratio", ratio(tr.blocked, tr.wall)},
		metric{"self_share.tracing", "ratio", ratio(tr.tracing, tr.wall)},
		metric{"trace.span_cost_ns", "ns", float64(tr.cost.outer)},
		metric{"trace.reconcile_err_p50", "ratio", median(tr.reconcileErr)},
		metric{"trace.reconcile_err_max", "ratio", percentile(tr.reconcileErr, 1)},
	)
	traced, untraced := endToEnd(p), endToEnd(base)
	for i := range traced {
		out = append(out, metric{"overhead." + traced[i].name, "ratio", ratio(traced[i].value, untraced[i].value)})
	}
	return out
}

func printPerLayer(w io.Writer, wl *workload, cfg config, p *pass, metrics []metric) {
	fmt.Fprintf(w, "%s seed %d traced: %d worlds, %d steps, %d spans kept (%d dropped)\n",
		wl.name, cfg.seed, p.rep.worlds, len(p.steps), len(p.tr.events), p.tr.droppedEvents)
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-34s %-14.6g %s\n", m.name, m.value, m.unit)
	}
	verdict := "ok"
	if worst := percentile(p.tr.reconcileErr, 1); worst > reconcileTolerance {
		verdict = "OUTSIDE TOLERANCE"
	}
	fmt.Fprintf(w, "  reconciliation: per-rank |wall - (layer self + app + blocked)| / wall within %.0f%%: %s\n",
		reconcileTolerance*100, verdict)
}
