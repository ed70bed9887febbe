package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"nasaic/internal/core"
	"nasaic/internal/nn"
	"nasaic/internal/rl"
	"nasaic/internal/stats"
	"nasaic/internal/workload"
	"nasaic/pkg/nasaic"
)

// paperWorkloads are explored in this order in every round.
var paperWorkloads = []string{"W1", "W2", "W3"}

// setupProbes is how many extra Run call → first event measurements of a
// workload precede each of its timed Runs, so setup_s is a median of many
// samples rather than one per round.
const setupProbes = 3

// exploreEvent is what the benchmark keeps of one streamed episode event.
type exploreEvent struct {
	at                   time.Time
	episode              int
	evals, hits, deduped int
	reward               float64
	feasible, pruned     bool
}

// exploreRun is one timed pkg/nasaic.Run of one workload.
type exploreRun struct {
	workload   string
	start, end time.Time
	events     []exploreEvent
	res        *nasaic.Result
}

func (r *exploreRun) setup() time.Duration { return r.events[0].at.Sub(r.start) }

// episodeMS returns the times between consecutive events: one per episode
// after the first, whose time belongs to setup.
func (r *exploreRun) episodeMS() []float64 {
	out := make([]float64, 0, len(r.events))
	for i := 1; i < len(r.events); i++ {
		out = append(out, ms(r.events[i].at.Sub(r.events[i-1].at)))
	}
	return out
}

// exploreOnce runs one paper-budget co-exploration of workload w with cold
// in-process caches, timestamping every episode event.
func exploreOnce(ctx context.Context, w string, seed int64) (*exploreRun, error) {
	r := &exploreRun{workload: w, events: make([]exploreEvent, 0, core.DefaultConfig().Episodes)}
	handler := func(e nasaic.Event) {
		r.events = append(r.events, exploreEvent{
			at: time.Now(), episode: e.Episode,
			evals: e.HWEvals, hits: e.HWCacheHits, deduped: e.HWDeduped,
			reward: e.Reward, feasible: e.Feasible, pruned: e.Pruned,
		})
	}
	r.start = time.Now()
	res, err := nasaic.Run(ctx, nasaic.WithWorkload(w), nasaic.WithSeed(seed), nasaic.WithEventHandler(handler))
	r.end = time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w, err)
	}
	if len(r.events) == 0 {
		return nil, fmt.Errorf("%s: run produced no events", w)
	}
	r.res = res
	return r, nil
}

// exploreSetupProbe measures Run call → first event for w and cancels the
// run there.
func exploreSetupProbe(ctx context.Context, w string, seed int64) (time.Duration, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var first time.Duration
	start := time.Now()
	_, err := nasaic.Run(pctx, nasaic.WithWorkload(w), nasaic.WithSeed(seed), nasaic.WithEventHandler(func(nasaic.Event) {
		if first == 0 {
			first = time.Since(start)
			cancel()
		}
	}))
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	if first == 0 {
		return 0, fmt.Errorf("%s setup probe: no event (%v)", w, err)
	}
	return first, nil
}

func runExplore(ctx context.Context, e *env) (*report, error) {
	rep := newReport()

	// Timed rounds: W1, W2, W3 to completion, until the run length is up.
	// Before each timed Run, setupProbes more Run call → first event
	// samples of that workload, so set-up is sampled across the whole run
	// rather than in one stretch the machine may happen to run slow.
	var runs []*exploreRun
	firsts := map[string][]float64{}
	var alloc uint64
	var gc0, gc1 cpuSample
	start := time.Now()
	stop := e.deadline()
	for {
		for _, w := range paperWorkloads {
			for p := 0; p < setupProbes; p++ {
				d, err := exploreSetupProbe(ctx, w, e.seed)
				if err != nil {
					return nil, err
				}
				firsts[w] = append(firsts[w], ms(d))
			}
			alloc0, cpu0 := totalAlloc(), readCPU()
			r, err := exploreOnce(ctx, w, e.seed)
			if err != nil {
				return nil, err
			}
			alloc += totalAlloc() - alloc0
			cpu1 := readCPU()
			gc0.gc, gc0.total = gc0.gc+cpu0.gc, gc0.total+cpu0.total
			gc1.gc, gc1.total = gc1.gc+cpu1.gc, gc1.total+cpu1.total
			runs = append(runs, r)
			firsts[w] = append(firsts[w], ms(r.setup()))
		}
		if time.Now().After(stop) {
			break
		}
	}
	// A set-up sample is the sum over W1–W3 of one sample each.
	setups := make([]float64, len(firsts[paperWorkloads[0]]))
	for _, w := range paperWorkloads {
		for i := range setups {
			setups[i] += firsts[w][i] / 1000
		}
	}
	elapsed := time.Since(start)

	var episodes int
	var opMS []float64
	var perRun [][]float64 // tail windows: one per Run
	var measured time.Duration
	for _, r := range runs {
		episodes += len(r.events)
		perRun = append(perRun, r.episodeMS())
		opMS = append(opMS, perRun[len(perRun)-1]...)
		measured += r.end.Sub(r.events[0].at)
	}
	rep.attempted = episodes
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rep.setE2E("setup_s", median(setups))
	rep.setE2E("ops_per_s", float64(len(opMS))/measured.Seconds())
	rep.setE2E("op_ms_p50", median(opMS))
	rep.setE2E("first_event_ms_p50", meanOfMedians(firsts))
	rep.setE2E("alloc_kb_per_op", float64(alloc)/1024/float64(episodes))
	rep.setE2E("peak_rss_mb", rss)
	fmt.Printf("explore: %d rounds, %d episodes in %.2fs, episode tail %.3f ms (median over Runs of each Run's p%g)\n",
		len(runs)/len(paperWorkloads), episodes, elapsed.Seconds(), windowTail(perRun), 100*tailQuantile(len(perRun[0])))

	// Output checks and digest, on the first round.
	phi := core.DefaultConfig().HWSteps
	firstDigest := map[string]string{}
	for _, r := range runs[:len(paperWorkloads)] {
		if err := checkExploreEvents(r.events, core.DefaultConfig().Episodes, phi); err != nil {
			rep.problem("explore %s: %v", r.workload, err)
		}
		if r.res.Best == nil {
			// A search that finds nothing feasible is an outcome, not a
			// wrong answer; the check is that the claim is consistent.
			if err := checkNoneFeasible(r.events, r.res); err != nil {
				rep.problem("explore %s: %v", r.workload, err)
			} else {
				fmt.Printf("explore: %s found no feasible solution in %d episodes\n", r.workload, len(r.events))
			}
		} else if err := checkBest(r.workload, e.seed, r.res.Best); err != nil {
			rep.problem("explore %s: %v", r.workload, err)
		}
		firstDigest[r.workload] = exploreDigest(r)
		rep.digest = append(rep.digest, firstDigest[r.workload])
	}
	for _, r := range runs[len(paperWorkloads):] {
		if d := exploreDigest(r); d != firstDigest[r.workload] {
			rep.problem("explore %s: a repeated round diverged: %s", r.workload, d)
		}
	}
	probe := runs[0]
	for _, r := range runs {
		if r.res.Best != nil {
			probe = r
			break
		}
	}
	if err := selfTestExplore(probe, e.seed); err != nil {
		rep.problem("explore self-test: %v", err)
	}

	if e.trace {
		if err := exploreLayers(ctx, e, rep, runs, gcPct(gc0, gc1)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// exploreDigest summarizes one run's simulated outcomes: every episode's
// reward and feasibility, the explored solutions and the best one.
func exploreDigest(r *exploreRun) string {
	var lines []string
	for _, ev := range r.events {
		lines = append(lines, fmt.Sprintf("%d %v %v %v", ev.episode, ev.reward, ev.feasible, ev.pruned))
	}
	for _, s := range r.res.Explored {
		lines = append(lines, s.String())
	}
	best := "none"
	if r.res.Best != nil {
		best = r.res.Best.String()
	}
	lines = append(lines, best)
	return fmt.Sprintf("explore %s %s episodes=%d explored=%d best=%s",
		r.workload, digestOf(lines), len(r.events), len(r.res.Explored), best)
}

// exploreLayers fills the explore workload's per-layer metrics: counters of
// the timed runs, the refine phase, the tracing overhead, evaluator set-up and
// a replay of the controller's calls.
func exploreLayers(ctx context.Context, e *env, rep *report, runs []*exploreRun, gc float64) error {
	var st nasaic.Stats
	var refine []float64
	var wall time.Duration
	// The explore spans are recorded from the event timestamps after the
	// runs, so their whole cost is the recording itself.
	recordStart := time.Now()
	for _, r := range runs {
		s := r.res.Stats
		st.HWRequests += s.HWRequests
		st.HWEvals += s.HWEvals
		st.HWCacheHits += s.HWCacheHits
		st.HWDeduped += s.HWDeduped
		st.PrunedEpisodes += s.PrunedEpisodes
		st.Trainings += s.Trainings
		st.LayerCostRequests += s.LayerCostRequests
		st.LayerCostHits += s.LayerCostHits
		root := e.tr.record("explore.run."+r.workload, 0, r.start, r.end)
		e.tr.record("explore.setup", root, r.start, r.events[0].at)
		for i := 1; i < len(r.events); i++ {
			e.tr.record("explore.episode", root, r.events[i-1].at, r.events[i].at)
		}
		last := r.events[len(r.events)-1].at
		e.tr.record("core.refine", root, last, r.end)
		refine = append(refine, ms(r.end.Sub(last)))
		wall += r.end.Sub(r.start)
	}
	rep.setLayer("trace.overhead_pct", 100*time.Since(recordStart).Seconds()/wall.Seconds())
	n := float64(len(runs) / len(paperWorkloads)) // counters per round
	rep.setLayer("core.hw_requests", float64(st.HWRequests)/n)
	rep.setLayer("core.hw_evals", float64(st.HWEvals)/n)
	rep.setLayer("core.hw_deduped", float64(st.HWDeduped)/n)
	rep.setLayer("core.pruned_episodes", float64(st.PrunedEpisodes)/n)
	rep.setLayer("predictor.trainings", float64(st.Trainings)/n)
	rep.setLayer("evalcache.hit_pct", stats.Pct(int64(st.HWCacheHits), int64(st.HWRequests)))
	rep.setLayer("maestro.memo_hit_pct", stats.Pct(int64(st.LayerCostHits), int64(st.LayerCostRequests)))
	rep.setLayer("core.refine_ms", mean(refine))
	rep.setLayer("runtime.gc_cpu_pct", gc)

	setupMS, err := evaluatorSetupMS(ctx, e.seed, e.tr)
	if err != nil {
		return err
	}
	rep.setLayer("core.setup_ms", setupMS)

	return controllerLayers(ctx, e, rep)
}

// evaluatorSetupMS times core.NewEvaluator (penalty-bound sampling) for each
// paper workload and returns the median in ms.
func evaluatorSetupMS(ctx context.Context, seed int64, tr *tracer) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	var out []float64
	for rep := 0; rep < 3; rep++ {
		for _, name := range paperWorkloads {
			if ctx.Err() != nil {
				return 0, ctx.Err()
			}
			w, err := workload.ByName(name)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := core.NewEvaluator(w, cfg); err != nil {
				return 0, err
			}
			t1 := time.Now()
			tr.record("core.NewEvaluator", 0, t0, t1)
			out = append(out, ms(t1.Sub(t0)))
		}
	}
	return median(out), nil
}

// controllerSpecs rebuilds the decision sequence core.New gives the
// controller: every task's hyperparameters, then ⟨dataflow, PEs, BW⟩ per
// sub-accelerator. It returns the specs and the architecture prefix length.
func controllerSpecs(w workload.Workload, cfg core.Config) ([]rl.DecisionSpec, int) {
	var specs []rl.DecisionSpec
	for ti, t := range w.Tasks {
		for _, d := range t.Space.Decisions {
			specs = append(specs, rl.DecisionSpec{Name: fmt.Sprintf("t%d.%s", ti, d.Name), NumOptions: len(d.Options)})
		}
	}
	archLen := len(specs)
	for si := 0; si < cfg.HW.NumSubs; si++ {
		specs = append(specs,
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.df", si+1), NumOptions: len(cfg.HW.Styles)},
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.pe", si+1), NumOptions: len(cfg.HW.PEOptions)},
			rl.DecisionSpec{Name: fmt.Sprintf("aic%d.bw", si+1), NumOptions: len(cfg.HW.BWOptions)},
		)
	}
	return specs, archLen
}

// controllerLayers replays the controller's calls of one paper-budget
// exploration per workload — sample, batched forced sample, BPTT over the
// 1+φ batch plus the combined and replay episodes, an update per batch —
// with seeded stand-in advantages, timing each layer call.
func controllerLayers(ctx context.Context, e *env, rep *report) error {
	cfg := core.DefaultConfig()
	var sample, bptt, update []float64
	alloc0 := totalAlloc()
	episodes := 0
	for _, name := range paperWorkloads {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		specs, archLen := controllerSpecs(w, cfg)
		ctrl := rl.NewController(specs, cfg.Hidden, stats.NewRNG(e.seed))
		ctrl.EntropyCoef = cfg.EntropyCoef
		opt := nn.NewRMSProp()
		opt.LR, opt.LRDecay, opt.LRDecaySteps = cfg.LR, cfg.LRDecay, cfg.LRDecaySteps
		mask := make([]bool, len(specs))
		for i := archLen; i < len(mask); i++ {
			mask[i] = true
		}
		advRNG := stats.NewRNG(e.seed ^ 0xad7)
		batchScale := 1.0 / float64(cfg.Batch)
		var replay *rl.Episode
		replayAdv := 0.0
		root := e.tr.begin("rl.replay."+name, 0)
		for ep := 0; ep < cfg.Episodes; ep++ {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			t0 := time.Now()
			combined := ctrl.Sample()
			hwEps := append([]*rl.Episode{combined}, ctrl.SampleForcedBatch(combined.Actions[:archLen], cfg.HWSteps)...)
			t1 := time.Now()

			advs := make([]float64, len(hwEps))
			bestIdx := 0
			for i := range advs {
				advs[i] = 2*advRNG.Float64() - 1
				if advs[i] > advs[bestIdx] {
					bestIdx = i
				}
			}
			if replay == nil || advs[bestIdx] > replayAdv {
				replay, replayAdv = hwEps[bestIdx], advs[bestIdx]
			}
			t2 := time.Now()
			ctrl.Accumulate(combined, advs[0], cfg.Gamma, batchScale)
			ctrl.AccumulateMaskedBatch(hwEps, advs, cfg.Gamma, batchScale/float64(len(hwEps)), mask)
			ctrl.Accumulate(replay, cfg.ReplayCoef*replayAdv, cfg.Gamma, batchScale)
			t3 := time.Now()
			e.tr.record("rl.sample", root, t0, t1)
			e.tr.record("rl.bptt", root, t2, t3)
			sample = append(sample, ms(t1.Sub(t0)))
			bptt = append(bptt, ms(t3.Sub(t2)))
			if (ep+1)%cfg.Batch == 0 || ep == cfg.Episodes-1 {
				t4 := time.Now()
				ctrl.Update(opt)
				t5 := time.Now()
				e.tr.record("rl.update", root, t4, t5)
				update = append(update, ms(t5.Sub(t4)))
			}
			episodes++
		}
		e.tr.end(root)
	}
	if episodes == 0 {
		return errors.New("controller replay ran no episodes")
	}
	rep.setLayer("rl.sample_ms", median(sample))
	rep.setLayer("rl.bptt_ms", median(bptt))
	rep.setLayer("rl.update_ms", median(update))
	rep.setLayer("rl.alloc_kb_per_episode", float64(totalAlloc()-alloc0)/1024/float64(episodes))
	return nil
}
