package main

import "learnedsqlgen/internal/rl"

// envSample snapshots an environment's estimator counters.
type envSample struct{ calls, hits, misses uint64 }

func readEnv(env *rl.Env) envSample {
	cs := env.CacheStats()
	return envSample{calls: env.Measures(), hits: cs.Hits, misses: cs.Misses}
}

// roundMark holds the counters a traced run reads at the start of a
// round; an untraced run reads none.
type roundMark struct {
	rt  runtimeSample
	env envSample
}

func markRound(tr *tracer, env *rl.Env) roundMark {
	if tr == nil {
		return roundMark{}
	}
	return roundMark{rt: readRuntime(), env: readEnv(env)}
}

// noteTraced adds a traced round's rl and estimator counters.
func (p *phase) noteTraced(m roundMark, env *rl.Env, samplers []*rl.Trainer) {
	for _, s := range samplers {
		p.rl.addTrainer(s.Stats(), s.Quarantined())
	}
	p.rl.noteEnv(m.env, readEnv(env))
}

// notePlain adds an untraced round's runtime counters and episode count.
func (p *phase) notePlain(m roundMark, episodes uint64) {
	p.runtime = p.runtime.add(readRuntime().sub(m.rt))
	p.plainEpisodes += episodes
}

// noteLibraryRound files a library round's counters under the round's
// kind; it does nothing in an untraced run.
func (p *phase) noteLibraryRound(tr *tracer, traced bool, m roundMark, env *rl.Env, samplers []*rl.Trainer) {
	switch {
	case traced:
		p.noteTraced(m, env, samplers)
	case tr != nil:
		var episodes uint64
		for _, s := range samplers {
			episodes += s.Stats().Episodes
		}
		p.notePlain(m, episodes)
	}
}

// noteEnv adds the estimator traffic between two samples to the traced
// rounds' totals.
func (a *rolloutStats) noteEnv(before, after envSample) {
	a.estCalls += after.calls - before.calls
	a.estHits += after.hits - before.hits
	a.estMisses += after.misses - before.misses
}

// layerValues derives the per-layer metrics shared by every workload from
// the traced run's spans and counters; workloads add the service ones.
// Layers a workload never enters read 0.
func layerValues(p *phase, spans []span, m map[string]float64) {
	a := aggregate(spans)
	ns := func(name string) float64 { return float64(a[name].mean()) }
	rollout := a["rl.rollout"].total.Seconds()
	m["rl.rollout_s"] = rollout
	m["rl.update_s"] = a["rl.train_batch"].self.Seconds()
	m["rl.episodes_per_s"] = ratio(float64(p.rl.episodes), rollout)
	m["rl.prefix_hit_rate"] = ratio(float64(p.rl.prefixHits), float64(p.rl.prefixHits+p.rl.prefixMisses))
	m["rl.quarantined"] = float64(p.rl.quarantined)
	m["nn.infer_step_ns"] = ns("nn.infer_step")
	m["nn.train_step_ns"] = ns("nn.train_step")
	m["nn.backward_ns_per_episode"] = ns("nn.backward")
	m["nn.adam_ns"] = ns("nn.adam")
	m["fsm.valid_ns"] = ns("fsm.valid")
	m["fsm.apply_ns"] = ns("fsm.apply")
	m["fsm.snapshot_ns"] = ns("fsm.snapshot")
	m["sqlast.render_ns"] = ns("sqlast.render")
	m["estimator.calls"] = float64(p.rl.estCalls)
	m["estimator.hit_rate"] = ratio(float64(p.rl.estHits), float64(p.rl.estHits+p.rl.estMisses))
	m["estimator.miss_ns"] = ns("estimator.miss")
	m["meta.pretrain_s"] = a["service.registry.cold_acquire"].total.Seconds()
	m["service.acquire_ns"] = ns("service.registry.warm_acquire")
	m["service.overhead_ms"] = serviceOverheadMS(spans)
	m["service.registry_hits"] = 0
	m["service.registry_trains"] = 0
	m["service.refusals"] = 0
	m["wire.encode_ns"] = ns("wire.encode")
	m["wire.decode_ns"] = ns("wire.decode")
	m["runtime.alloc_bytes_per_episode"] = ratio(p.runtime.allocBytes, float64(p.plainEpisodes))
	m["runtime.gc_cpu_s"] = p.runtime.gcCPU
	m["runtime.gc_cycles"] = p.runtime.gcCycles
	m["trace.overhead_pct"] = p.overheadPct()
}

// serviceOverheadMS is the median, over the probe requests, of the
// client-observed request time minus the same request replayed through
// the library (spans sharing a request id).
func serviceOverheadMS(spans []span) float64 {
	client := byReq(spans, "service.probe_client")
	lib := byReq(spans, "service.probe_library")
	var diffs []float64
	for id, c := range client {
		if l, ok := lib[id]; ok {
			diffs = append(diffs, ms(c-l))
		}
	}
	return median(diffs)
}
