package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"learnedsqlgen/client"
	"learnedsqlgen/internal/rl"
	"learnedsqlgen/internal/service"
)

// serveMix is the serve workload's constraint mix. Its two constraints
// fall in two registry domains (cardinality [100, 1000] and cost
// [1000, 10000]). Request k of every connection carries
// serveMix[(k-1) % len(serveMix)]: streams are keyed by (session seed,
// request id), so a fixed id-to-constraint map makes a run's rows a
// function of its seed alone, whatever order the streams finish in.
var serveMix = []rl.Constraint{
	rl.RangeConstraint(rl.Cardinality, 100, 400),
	rl.RangeConstraint(rl.Cost, 1000, 4000),
}

const (
	serveDataset = "xuetang"
	serveToken   = "perfbench"
)

// unbound are tenant limits sized never to bind: admission runs on every
// request and never refuses one.
var unbound = service.TenantLimits{
	RatePerSec: 1e9, Burst: 1 << 30, MaxStreams: 1 << 20,
	AttemptBudget: 1 << 50, AttemptWindow: time.Hour,
}

// rig is one running server with its warm registry and client sessions.
type rig struct {
	srv    *service.Server
	ds     *service.Dataset
	addr   string
	served chan error // Serve's return value
	conns  []*client.Conn
}

// startRig is the serve workload's set-up: open the dataset, pre-train
// the registry for every domain of the mix, listen on loopback and open
// the client sessions.
func startRig(ctx context.Context, opt options, tr *tracer) (*rig, error) {
	sz := opt.size
	srv, err := service.New(service.Config{
		Datasets:     []service.DatasetSpec{{Name: serveDataset, Scale: sz.scale}},
		Seed:         dataSeed,
		SampleValues: sz.sampleK,
		WarmRounds:   sz.warmRounds,
		WarmEpisodes: sz.warmEpis,
		Tenants:      []service.TenantConfig{{Name: "bench", Token: serveToken, Limits: unbound}},
	})
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, ds: srv.Dataset(serveDataset)}
	if tr != nil {
		r.ds.Env.SetBackend(timedBackend{inner: r.ds.Env.Est, tr: tr})
	}
	// Until Serve runs, only the registry's pre-training holds resources,
	// and it has finished whenever Acquire returns.
	for _, c := range serveMix {
		start := time.Now()
		e, err := srv.Registry().Acquire(ctx, r.ds, c)
		if err != nil {
			return nil, fmt.Errorf("warm registry for %v: %w", c, err)
		}
		srv.Registry().Release(e)
		tr.keep(tr.newID(), 0, 0, "service.registry.cold_acquire", start, time.Now())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.addr = ln.Addr().String()
	r.served = make(chan error, 1)
	go func() { r.served <- srv.Serve(ln) }()
	for j := 0; j < min(sz.conns, procs()); j++ {
		c, err := r.dial(opt.seed, j)
		if err != nil {
			r.stop()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	return r, nil
}

// sessionSeed keys connection j's streams.
func sessionSeed(seed int64, j int) int64 { return rl.FanSeed(seed, uint64(j)) }

func (r *rig) dial(seed int64, j int) (*client.Conn, error) {
	return client.Dial(r.addr, &client.Config{Seed: sessionSeed(seed, j), Name: "perfbench", Token: serveToken})
}

// stop closes the sessions, drains the server and waits for Serve to
// return.
func (r *rig) stop() error {
	for _, c := range r.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, service.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reqKey makes request ids unique across connections for span grouping.
func reqKey(conn int, id uint64) uint64 { return uint64(conn)<<32 | id }

// request sends o on conn and returns its stream with the time it was
// sent.
func request(ctx context.Context, conn *client.Conn, o *op) (*client.Stream, time.Time, error) {
	sent := time.Now()
	st, err := conn.Generate(ctx, client.Request{
		Dataset: serveDataset, Metric: strings.ToLower(o.c.Metric.String()),
		IsRange: true, Lo: o.c.Lo, Hi: o.c.Hi,
		N: o.n, MaxAttempts: maxAttempts, Deadline: -1,
	})
	return st, sent, err
}

func consume(st *client.Stream, o *op, sent time.Time) {
	for st.Next() {
		if len(o.rows) == 0 {
			o.firstRow = time.Since(sent)
		}
		r := st.Row()
		o.rows = append(o.rows, row{SQL: r.SQL, Measured: r.Measured})
	}
	o.err = st.Err()
	_, o.attempts, _ = st.Stats()
	o.total = time.Since(sent)
}

// driveConn is one connection's share of a round: requests first+1 ..
// first+count sent in id order from this goroutine alone (so the
// client assigns exactly these ids), with up to inFlight streams open at
// once, each read on its own goroutine.
func driveConn(ctx context.Context, conn *client.Conn, j int, seed int64, first uint64, sz size, tr *tracer) []*op {
	ops := make([]*op, sz.serveReqs)
	sem := make(chan struct{}, sz.inFlight)
	var wg sync.WaitGroup
	for i := range ops {
		id := first + uint64(i) + 1
		o := &op{id: id, seed: rl.FanSeed(sessionSeed(seed, j), id), conn: j,
			c: serveMix[(id-1)%uint64(len(serveMix))], n: sz.serveN}
		ops[i] = o
		sem <- struct{}{}
		st, sent, err := request(ctx, conn, o)
		if err != nil {
			o.err = err
			<-sem
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			consume(st, o, sent)
			<-sem
			tr.record(tr.newID(), 0, reqKey(j, o.id), "client.request", sent, sent.Add(o.total))
		}()
	}
	wg.Wait()
	return ops
}

// tenantRefusals sums every admission refusal the server has counted.
func tenantRefusals(st service.ServerStats) int64 {
	n := st.ShedSessions + st.ShedStreams + st.Unauthenticated
	for _, t := range st.Tenants {
		n += t.RateRefusals + t.StreamRefusals + t.BudgetStops
	}
	return n
}

// runServe runs the generation service on loopback TCP: a closed loop over
// up to nproc connections, each keeping several streams in flight, all
// sharing the registry's frozen actors and one estimator cache.
func runServe(ctx context.Context, opt options) (*outcome, error) {
	sz := opt.size
	var tr *tracer
	reps := sz.setupReps
	if opt.trace {
		tr, reps = newTracer(), 1
	}
	var r *rig
	setups := make([]float64, reps)
	for i := range setups {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, fmt.Errorf("stop set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if r, err = startRig(ctx, opt, tr); err != nil {
			return nil, err
		}
		setups[i] = time.Since(start).Seconds()
	}
	out, err := measureServe(ctx, opt, r, setups, tr)
	if serr := r.stop(); serr != nil && err == nil {
		err = fmt.Errorf("stop server: %w", serr)
	}
	return out, err
}

func measureServe(ctx context.Context, opt options, r *rig, setups []float64, tr *tracer) (*outcome, error) {
	sz := opt.size
	p := &phase{}
	var hits, trains uint64
	var refusals int64
	err := rounds(opt, tr, func(round int, traced bool) error {
		mark := markRound(tr, r.ds.Env)
		reg0, ref0 := r.srv.Registry().Stats(), tenantRefusals(r.srv.Stats())
		start, cpu0 := time.Now(), cpuTime()
		perConn := make([][]*op, len(r.conns))
		var wg sync.WaitGroup
		for j, conn := range r.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				perConn[j] = driveConn(ctx, conn, j, opt.seed, uint64(round*sz.serveReqs), sz, tr)
			}()
		}
		wg.Wait()
		wall, cpu := time.Since(start), cpuTime()-cpu0
		var ops []*op
		for _, c := range perConn {
			ops = append(ops, c...)
		}
		p.roundTTS = append(p.roundTTS, wall.Seconds())
		p.addRound(ops, wall, cpu, traced)
		switch {
		case traced:
			p.noteTraced(mark, r.ds.Env, nil)
			reg := r.srv.Registry().Stats()
			hits += reg.Hits - reg0.Hits
			trains += reg.Trains - reg0.Trains
			refusals += tenantRefusals(r.srv.Stats()) - ref0
		case tr != nil:
			attempts := 0
			for _, o := range ops {
				attempts += o.attempts
			}
			p.notePlain(mark, uint64(attempts))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()

	k, err := newChecker(serveDataset, sz)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(p.ops), correct: true}
	out.failed, err = k.failures(p.ops)
	if err != nil {
		fmt.Fprintf(opt.log, "check: %v\n", err)
	}
	sampled := 0
	for _, o := range p.ops {
		if o.id%uint64(sz.sampleEvery) != 1 {
			continue
		}
		sampled++
		if err := k.replayServed(ctx, r, o); err != nil {
			out.correct = false
			fmt.Fprintf(opt.log, "check: %v\n", err)
			break
		}
	}
	m := p.e2e(setups, peak)
	fmt.Fprintf(opt.log, "serve: %d requests over %d connections, %d replayed through the library, accuracy %.4f, estimator hit rate %.3f, set-up seconds %.3f, round seconds %.3f\n",
		len(p.ops), len(r.conns), sampled, m["accuracy"], r.ds.Env.CacheStats().HitRate(), setups, p.roundTTS)

	if tr == nil {
		out.metrics = m
		return out, nil
	}
	if err := probeService(ctx, opt, r, p, tr); err != nil {
		out.correct = false
		fmt.Fprintf(opt.log, "check: %v\n", err)
	}
	if err := warmAcquires(ctx, r, tr); err != nil {
		return nil, err
	}
	e, err := r.srv.Registry().Acquire(ctx, r.ds, serveMix[0])
	if err != nil {
		return nil, err
	}
	actor := e.ActorFor(serveMix[0])
	r.srv.Registry().Release(e)
	if err := finishTraced(ctx, opt, "serve", r.ds.Env, actor, serveMix[0], p, tr, out); err != nil {
		return nil, err
	}
	out.metrics["service.registry_hits"] = float64(hits)
	out.metrics["service.registry_trains"] = float64(trains)
	out.metrics["service.refusals"] = float64(refusals)
	return out, nil
}

// replayServed re-runs a streamed request through the library — a fresh
// sampler seeded rl.FanSeed(session seed, id) on the registry entry's
// actor for the constraint — and compares it with what the stream
// delivered.
func (k *checker) replayServed(ctx context.Context, r *rig, o *op) error {
	e, err := r.srv.Registry().Acquire(ctx, r.ds, o.c)
	if err != nil {
		return err
	}
	defer r.srv.Registry().Release(e)
	if err := k.replay(ctx, e.ActorFor(o.c), o); err != nil {
		return fmt.Errorf("connection %d: stream differs from the library: %w", o.conn, err)
	}
	return nil
}

// probeService times requests one at a time on a fresh session, each
// once through the client and once through the library on the server's
// own environment and entry actor; service.overhead_ms is the median
// difference. The order alternates so neither side always meets the
// warmer estimator cache. The library side's samplers give the serve
// workload's rl counters.
func probeService(ctx context.Context, opt options, r *rig, p *phase, tr *tracer) error {
	j := len(r.conns)
	conn, err := r.dial(opt.seed, j)
	if err != nil {
		return err
	}
	defer conn.Close()
	tr.setRecording(true)
	defer tr.setRecording(false)
	for i := 0; i < opt.size.probeReqs; i++ {
		id := uint64(i + 1)
		c := serveMix[i%len(serveMix)]
		key := reqKey(j, id)
		served := &op{id: id, seed: rl.FanSeed(sessionSeed(opt.seed, j), id), conn: j, c: c, n: opt.size.serveN}
		lib := &op{id: key, seed: served.seed, c: c, n: served.n}
		e, err := r.srv.Registry().Acquire(ctx, r.ds, c)
		if err != nil {
			return err
		}
		viaLib := func() {
			start := time.Now()
			s := libRequest(ctx, r.ds.Env, e.ActorFor(c), lib, tr)
			tr.record(tr.newID(), 0, key, "service.probe_library", start, time.Now())
			p.rl.addTrainer(s.Stats(), s.Quarantined())
		}
		if i%2 == 0 {
			viaLib()
		}
		st, sent, err := request(ctx, conn, served)
		if err != nil {
			r.srv.Registry().Release(e)
			return err
		}
		consume(st, served, sent)
		tr.record(tr.newID(), 0, key, "service.probe_client", sent, sent.Add(served.total))
		if i%2 == 1 {
			viaLib()
		}
		r.srv.Registry().Release(e)
		lib.id = served.id
		if err := sameDelivery(served, lib); err != nil {
			return fmt.Errorf("probe: stream differs from the library: %w", err)
		}
	}
	return nil
}

// warmAcquires times Acquire+Release of an already warm registry entry.
func warmAcquires(ctx context.Context, r *rig, tr *tracer) error {
	for i := 0; i < 1000; i++ {
		start := time.Now()
		e, err := r.srv.Registry().Acquire(ctx, r.ds, serveMix[i%len(serveMix)])
		if err != nil {
			return err
		}
		r.srv.Registry().Release(e)
		tr.keep(tr.newID(), 0, 0, "service.registry.warm_acquire", start, time.Now())
	}
	return nil
}
