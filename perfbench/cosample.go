package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"nasaic/internal/accel"
	"nasaic/internal/core"
	"nasaic/internal/dnn"
	"nasaic/internal/sched"
	"nasaic/internal/search"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
)

const (
	// cosampleRoundPairs is how many pairs of each workload one round
	// evaluates with one fresh evaluator.
	cosampleRoundPairs = 2048
	// cosampleDigestPairs fixes the stream prefix the digest covers, so the
	// digest does not depend on how many pairs a run gets through.
	cosampleDigestPairs = 3072
	// cosampleCheckStride: one pair in this many is recomputed by a
	// cache-off evaluator after the run.
	cosampleCheckStride = 128
	// cosampleProbeStride: in traced rounds, one pair in this many is also
	// fed to the layers the evaluator calls internally.
	cosampleProbeStride = 8
)

// pairStream draws random ⟨architectures, design⟩ pairs the way
// search.MonteCarlo does (Space.Random per task, then search.RandomDesign),
// skipping any pair already drawn since the last reset, so no evaluator sees
// a pair twice.
type pairStream struct {
	rng  *stats.RNG
	hw   accel.Space
	seen map[string]bool
}

type pairInput struct {
	wi      int
	choices [][]int
	design  accel.Design
}

func newPairStream(seed int64, hw accel.Space) *pairStream {
	return &pairStream{rng: stats.NewRNG(seed ^ 0x3ca7e), hw: hw, seen: map[string]bool{}}
}

// reset forgets the pairs drawn so far; the random stream continues.
func (s *pairStream) reset() { clear(s.seen) }

func (s *pairStream) next(wi int, w workload.Workload) pairInput {
	for {
		in := pairInput{wi: wi, choices: make([][]int, len(w.Tasks))}
		var key strings.Builder
		key.WriteString(strconv.Itoa(wi))
		for ti, t := range w.Tasks {
			in.choices[ti] = t.Space.Random(s.rng)
			for _, c := range in.choices[ti] {
				key.WriteByte(',')
				key.WriteString(strconv.Itoa(c))
			}
		}
		in.design = search.RandomDesign(s.hw, s.rng)
		key.WriteByte('|')
		key.WriteString(in.design.Fingerprint())
		if k := key.String(); !s.seen[k] {
			s.seen[k] = true
			return in
		}
	}
}

type sampledPair struct {
	in  pairInput
	res pairResult
}

func runCosample(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	cfg := core.DefaultConfig()
	cfg.Seed = e.seed
	wls := make([]workload.Workload, len(paperWorkloads))
	for i, name := range paperWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		wls[i] = w
	}

	stream := newPairStream(e.seed, cfg.HW)
	var (
		plainMS, tracedMS []float64
		rounds            [][]float64 // tail windows: one per round
		setups            []float64
		firsts            = map[string][]float64{}
		perEval           []float64
		samples           []sampledPair
		digest            []string
		feasible, pairs   int
		pairTime          time.Duration
		alloc             uint64
		st                core.EvalStats
		probes            probeTimes
	)
	untraced := newTracer(false)
	cpu0 := readCPU()
	stop := e.deadline()
	for round := 0; ; round++ {
		// A traced run alternates traced and untraced rounds; the gap
		// between their pair latencies is the tracing overhead.
		traced := e.trace && round%2 == 0
		tr := untraced
		if traced {
			tr = e.tr
		}
		var setup time.Duration
		var roundMS []float64
		for wi, w := range wls {
			// Each workload's share of a round is one Monte Carlo search:
			// a fresh evaluator (penalty-bound sampling is set-up), then
			// cosampleRoundPairs pairs it has never seen.
			t0 := time.Now()
			ev, err := core.NewEvaluator(w, cfg)
			if err != nil {
				return nil, err
			}
			build := time.Since(t0)
			e.tr.record("core.NewEvaluator", 0, t0, t0.Add(build))
			setup += build
			perEval = append(perEval, ms(build))
			stream.reset()

			alloc0, phase0 := totalAlloc(), time.Now()
			for k := 0; k < cosampleRoundPairs; k++ {
				in := stream.next(wi, w)
				t0 := time.Now()
				res, nets, err := evalPair(ctx, tr, ev, w, in)
				d := time.Since(t0)
				if err != nil {
					return nil, err
				}
				roundMS = append(roundMS, ms(d))
				if traced {
					tracedMS = append(tracedMS, ms(d))
				} else {
					plainMS = append(plainMS, ms(d))
				}
				if k == 0 {
					firsts[w.Name] = append(firsts[w.Name], ms(build+d))
				}
				if err := checkPairFeasibility(w.Specs, res); err != nil {
					rep.problem("cosample %s: %v", w.Name, err)
				}
				if res.feasible {
					feasible++
				}
				if (pairs+int(uint64(e.seed)%cosampleCheckStride))%cosampleCheckStride == 0 {
					samples = append(samples, sampledPair{in, res})
				}
				if pairs < cosampleDigestPairs {
					digest = append(digest, fmt.Sprintf("%d %s %d %v %v %v %v", wi, in.design.Fingerprint(),
						res.latency, res.energy, res.area, res.feasible, res.weighted))
				}
				if traced && k%cosampleProbeStride == 0 {
					if err := probes.add(ctx, e.tr, cfg, w, nets, in.design); err != nil {
						return nil, err
					}
				}
				pairs++
			}
			pairTime += time.Since(phase0)
			alloc += totalAlloc() - alloc0

			s := ev.EvalStats()
			if err := checkCosampleCounters(s, cosampleRoundPairs); err != nil {
				rep.problem("cosample %s round %d: %v", w.Name, round, err)
			}
			st.HWRequests += s.HWRequests
			st.HWEvals += s.HWEvals
			st.HWCacheHits += s.HWCacheHits
			st.Trainings += s.Trainings
			st.LayerCostRequests += s.LayerCostRequests
			st.LayerCostHits += s.LayerCostHits
		}
		setups = append(setups, setup.Seconds())
		rounds = append(rounds, roundMS)
		// A traced run needs an untraced round to compare against.
		if time.Now().After(stop) && (!e.trace || round > 0) {
			break
		}
	}
	cpu1 := readCPU()
	rep.attempted = pairs

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", median(setups))
	rep.setE2E("ops_per_s", float64(pairs)/pairTime.Seconds())
	rep.setE2E("op_ms_p50", median(append(append([]float64(nil), plainMS...), tracedMS...)))
	rep.setE2E("first_event_ms_p50", meanOfMedians(firsts))
	rep.setE2E("alloc_kb_per_op", float64(alloc)/1024/float64(pairs))
	rep.setE2E("peak_rss_mb", rss)
	fmt.Printf("cosample: %d rounds, %d pairs (%d feasible), pair tail %.4f ms (median over rounds of each round's p%g)\n",
		len(setups), pairs, feasible, windowTail(rounds), 100*tailQuantile(len(wls)*cosampleRoundPairs))

	// A seeded sample of pairs recomputed with the cache and memo off.
	uncached := make([]*core.Evaluator, len(wls))
	for wi, w := range wls {
		if uncached[wi], err = uncachedEvaluator(w, e.seed); err != nil {
			return nil, err
		}
	}
	for _, s := range samples {
		nets, err := decodePair(wls[s.in.wi], s.in)
		if err != nil {
			return nil, err
		}
		if err := checkPairRecompute(uncached[s.in.wi], nets, s.in.design, s.res); err != nil {
			rep.problem("cosample %s: %v", wls[s.in.wi].Name, err)
		}
	}
	if err := selfTestCosample(wls, uncached, samples); err != nil {
		rep.problem("cosample self-test: %v", err)
	}
	rep.digest = append(rep.digest, fmt.Sprintf("cosample %s first=%d pairs", digestOf(digest), len(digest)))
	fmt.Printf("cosample: %d sampled pairs recomputed with the cache off\n", len(samples))

	if e.trace {
		rep.setLayer("core.setup_ms", median(perEval))
		rounds := float64(len(setups)) // counters per round
		rep.setLayer("core.hw_requests", float64(st.HWRequests)/rounds)
		rep.setLayer("core.hw_evals", float64(st.HWEvals)/rounds)
		rep.setLayer("core.hw_deduped", 0)
		rep.setLayer("core.pruned_episodes", 0)
		rep.setLayer("predictor.trainings", float64(st.Trainings)/rounds)
		rep.setLayer("evalcache.hit_pct", stats.Pct(int64(st.HWCacheHits), int64(st.HWRequests)))
		rep.setLayer("maestro.memo_hit_pct", stats.Pct(int64(st.LayerCostHits), int64(st.LayerCostRequests)))
		rep.setLayer("dnn.decode_us", median(e.tr.durations("dnn.decode", time.Microsecond)))
		rep.setLayer("core.hweval_us", median(e.tr.durations("core.hweval", time.Microsecond)))
		rep.setLayer("predictor.accuracy_us", median(e.tr.durations("predictor.accuracy", time.Microsecond)))
		rep.setLayer("dnn.signature_us", median(probes.signature))
		rep.setLayer("maestro.layer_cost_us", median(probes.layerCost))
		rep.setLayer("sched.hap_us", median(probes.hap))
		rep.setLayer("runtime.gc_cpu_pct", gcPct(cpu0, cpu1))
		rep.setLayer("trace.overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))
	}
	return rep, nil
}

func decodePair(w workload.Workload, in pairInput) ([]*dnn.Network, error) {
	nets := make([]*dnn.Network, len(w.Tasks))
	for ti, t := range w.Tasks {
		n, err := t.Space.Decode(in.choices[ti])
		if err != nil {
			return nil, err
		}
		nets[ti] = n
	}
	return nets, nil
}

// evalPair is one cosample operation: decode the architectures, evaluate the
// hardware, predict the accuracies. Each call into a layer is a span of tr.
func evalPair(ctx context.Context, tr *tracer, ev *core.Evaluator, w workload.Workload, in pairInput) (pairResult, []*dnn.Network, error) {
	root := tr.begin("cosample.pair", 0)
	defer tr.end(root)
	sp := tr.begin("dnn.decode", root)
	nets, err := decodePair(w, in)
	tr.end(sp)
	if err != nil {
		return pairResult{}, nil, err
	}
	sp = tr.begin("core.hweval", root)
	m, err := ev.HWEvalCtx(ctx, nets, in.design)
	tr.end(sp)
	if err != nil {
		return pairResult{}, nil, err
	}
	sp = tr.begin("predictor.accuracy", root)
	accs := ev.Accuracies(nets)
	tr.end(sp)
	return pairResult{m.Latency, m.EnergyNJ, m.AreaUM2, m.Feasible, accs, w.Weighted(accs)}, nets, nil
}

// probeTimes holds direct timings of the layers HWEval calls internally.
type probeTimes struct {
	signature, layerCost, hap []float64 // µs per network, per pair, per pair
	sched                     map[string]*core.Evaluator
}

// add times Network.Signature per network, the MAESTRO model over every
// ⟨layer, active sub-accelerator⟩ of the pair with the memo bypassed, and
// HAP on the pair's scheduling problem (built by a memo-free evaluator, so
// the timed evaluator's counters are untouched).
func (p *probeTimes) add(ctx context.Context, tr *tracer, cfg core.Config, w workload.Workload, nets []*dnn.Network, d accel.Design) error {
	for _, n := range nets {
		t0 := time.Now()
		_ = n.Signature()
		t1 := time.Now()
		tr.record("dnn.signature", 0, t0, t1)
		p.signature = append(p.signature, us(t1.Sub(t0)))
	}
	t0 := time.Now()
	for _, n := range nets {
		for _, l := range n.ComputeLayers() {
			for _, s := range d.Subs {
				if s.Active() {
					_ = cfg.Cost.LayerCost(l, s.DF, s.PEs, s.BW)
				}
			}
		}
	}
	t1 := time.Now()
	tr.record("maestro.layer_cost", 0, t0, t1)
	p.layerCost = append(p.layerCost, us(t1.Sub(t0)))

	if p.sched == nil {
		p.sched = map[string]*core.Evaluator{}
	}
	ev := p.sched[w.Name]
	if ev == nil {
		var err error
		if ev, err = uncachedEvaluator(w, cfg.Seed); err != nil {
			return err
		}
		p.sched[w.Name] = ev
	}
	problem, _, _, err := ev.Schedule(nets, d)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if _, _, err := sched.HAPCtx(ctx, problem); err != nil {
		return err
	}
	t1 = time.Now()
	tr.record("sched.hap", 0, t0, t1)
	p.hap = append(p.hap, us(t1.Sub(t0)))
	return nil
}

// selfTestCosample feeds the cosample checks a perturbed latency, a flipped
// feasibility verdict and a cache hit; each must be rejected.
func selfTestCosample(wls []workload.Workload, uncached []*core.Evaluator, samples []sampledPair) error {
	if len(samples) == 0 {
		return errors.New("no sampled pairs")
	}
	s := samples[0]
	nets, err := decodePair(wls[s.in.wi], s.in)
	if err != nil {
		return err
	}
	bad := s.res
	bad.latency++
	if checkPairRecompute(uncached[s.in.wi], nets, s.in.design, bad) == nil {
		return errors.New("recompute check accepted a perturbed latency")
	}
	bad = s.res
	bad.feasible = !bad.feasible
	if checkPairFeasibility(wls[s.in.wi].Specs, bad) == nil {
		return errors.New("feasibility check accepted a flipped verdict")
	}
	if checkCosampleCounters(core.EvalStats{HWRequests: 10, HWEvals: 9, HWCacheHits: 1}, 10) == nil {
		return errors.New("counter check accepted a cache hit")
	}
	return nil
}
