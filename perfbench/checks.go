package main

import (
	"encoding/json"
	"errors"
	"fmt"

	"nasaic/internal/accel"
	"nasaic/internal/core"
	"nasaic/internal/dataflow"
	"nasaic/internal/dnn"
	"nasaic/internal/journal"
	"nasaic/internal/workload"
	"nasaic/pkg/nasaic"
)

// Output checks compare against an independent recomputation or a property
// the method must have, never against stored output. Each check has a
// self-test feeding it one corrupted output it must reject.

// checkExploreEvents: episodes 0..n-1 in order, and no episode reports more
// hardware evaluations + cache hits + in-batch dedups than its 1+φ requests.
func checkExploreEvents(events []exploreEvent, n, phi int) error {
	if len(events) != n {
		return fmt.Errorf("%d episode events, want %d", len(events), n)
	}
	for i, ev := range events {
		if ev.episode != i {
			return fmt.Errorf("event %d reports episode %d", i, ev.episode)
		}
		if ev.evals+ev.hits+ev.deduped > 1+phi {
			return fmt.Errorf("episode %d: %d evals + %d hits + %d deduped exceed 1+φ=%d",
				i, ev.evals, ev.hits, ev.deduped, 1+phi)
		}
	}
	return nil
}

// uncachedEvaluator builds an evaluator with the hardware cache and the
// layer-cost memo off, so every metric it returns is computed afresh.
func uncachedEvaluator(w workload.Workload, seed int64) (*core.Evaluator, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.HWCache = false
	cfg.LayerCostMemo = false
	return core.NewEvaluator(w, cfg)
}

// decodeSolution turns a public solution back into networks and a design.
func decodeSolution(w workload.Workload, s *nasaic.Solution) ([]*dnn.Network, accel.Design, error) {
	if len(s.Tasks) != len(w.Tasks) {
		return nil, accel.Design{}, fmt.Errorf("%d task results for %d tasks", len(s.Tasks), len(w.Tasks))
	}
	nets := make([]*dnn.Network, len(w.Tasks))
	for i, t := range w.Tasks {
		n, err := t.Space.Decode(s.Tasks[i].Choices)
		if err != nil {
			return nil, accel.Design{}, err
		}
		nets[i] = n
	}
	subs := make([]accel.SubAccel, len(s.Design.Subs))
	for i, sub := range s.Design.Subs {
		df, err := dataflow.ParseStyle(sub.Dataflow)
		if err != nil {
			return nil, accel.Design{}, err
		}
		subs[i] = accel.SubAccel{DF: df, PEs: sub.PEs, BW: sub.BandwidthGBs}
	}
	return nets, accel.NewDesign(subs...), nil
}

// checkBest: the best solution meets the workload's ⟨LS, ES, AS⟩, and a
// cache-off evaluator recomputes its latency, energy, area, accuracies and
// weighted accuracy exactly.
func checkBest(name string, seed int64, best *nasaic.Solution) error {
	if best == nil {
		return errors.New("no feasible solution found")
	}
	w, err := workload.ByName(name)
	if err != nil {
		return err
	}
	sp := w.Specs
	if !best.Feasible || best.LatencyCycles > sp.LatencyCycles || best.EnergyNJ > sp.EnergyNJ || best.AreaUM2 > sp.AreaUM2 {
		return fmt.Errorf("best %s violates the specs %s", best, sp)
	}
	ev, err := uncachedEvaluator(w, seed)
	if err != nil {
		return err
	}
	nets, d, err := decodeSolution(w, best)
	if err != nil {
		return err
	}
	m := ev.HWEval(nets, d)
	accs := ev.Accuracies(nets)
	if m.Latency != best.LatencyCycles || m.EnergyNJ != best.EnergyNJ || m.AreaUM2 != best.AreaUM2 {
		return fmt.Errorf("best reports L=%d E=%v A=%v, recomputed L=%d E=%v A=%v",
			best.LatencyCycles, best.EnergyNJ, best.AreaUM2, m.Latency, m.EnergyNJ, m.AreaUM2)
	}
	for i, a := range accs {
		if a != best.Tasks[i].Accuracy {
			return fmt.Errorf("task %d accuracy %v, recomputed %v", i, best.Tasks[i].Accuracy, a)
		}
	}
	if wa := w.Weighted(accs); wa != best.WeightedAccuracy {
		return fmt.Errorf("weighted accuracy %v, recomputed %v", best.WeightedAccuracy, wa)
	}
	return nil
}

// checkNoneFeasible: a run that reports no best solution explored nothing
// feasible — no feasible episode, no explored solution, every episode pruned.
func checkNoneFeasible(events []exploreEvent, res *nasaic.Result) error {
	for _, ev := range events {
		if ev.feasible || !ev.pruned {
			return fmt.Errorf("no best solution, yet episode %d was feasible=%v pruned=%v", ev.episode, ev.feasible, ev.pruned)
		}
	}
	if len(res.Explored) != 0 || res.Stats.PrunedEpisodes != len(events) {
		return fmt.Errorf("no best solution, yet %d explored and %d of %d episodes pruned",
			len(res.Explored), res.Stats.PrunedEpisodes, len(events))
	}
	return nil
}

// selfTestExplore feeds the explore checks a dropped event, a feasible
// episode without a best solution and a perturbed latency; each must be
// rejected.
func selfTestExplore(r *exploreRun, seed int64) error {
	phi := core.DefaultConfig().HWSteps
	dropped := append(append([]exploreEvent(nil), r.events[:10]...), r.events[11:]...)
	dropped = append(dropped, r.events[len(r.events)-1])
	if checkExploreEvents(dropped, len(r.events), phi) == nil {
		return errors.New("event check accepted a dropped event")
	}
	lost := make([]exploreEvent, len(r.events))
	for i, ev := range r.events {
		lost[i] = ev
		lost[i].feasible, lost[i].pruned = i == 7, i != 7
	}
	if checkNoneFeasible(lost, &nasaic.Result{Stats: nasaic.Stats{PrunedEpisodes: len(lost) - 1}}) == nil {
		return errors.New("no-feasible check accepted a feasible episode")
	}
	if r.res.Best == nil {
		return nil // no run found a best solution to perturb
	}
	bad := *r.res.Best
	bad.LatencyCycles--
	if checkBest(r.workload, seed, &bad) == nil {
		return errors.New("best-solution check accepted a perturbed latency")
	}
	return nil
}

// pairResult is one evaluated cosample pair as the benchmark saw it.
type pairResult struct {
	latency  int64
	energy   float64
	area     float64
	feasible bool
	accs     []float64
	weighted float64
}

// checkPairFeasibility: the evaluator's feasibility verdict agrees with the
// pair's own metrics against the workload's specs.
func checkPairFeasibility(sp workload.Specs, r pairResult) error {
	want := r.latency <= sp.LatencyCycles && r.energy <= sp.EnergyNJ && r.area <= sp.AreaUM2
	if r.feasible != want {
		return fmt.Errorf("feasible=%v but L=%d E=%v A=%v against %s", r.feasible, r.latency, r.energy, r.area, sp)
	}
	return nil
}

// checkPairRecompute: a cache-off evaluator reproduces the pair exactly.
func checkPairRecompute(ev *core.Evaluator, nets []*dnn.Network, d accel.Design, r pairResult) error {
	m := ev.HWEval(nets, d)
	accs := ev.Accuracies(nets)
	got := pairResult{latency: m.Latency, energy: m.EnergyNJ, area: m.AreaUM2, feasible: m.Feasible,
		accs: accs, weighted: ev.W.Weighted(accs)}
	if got.latency != r.latency || got.energy != r.energy || got.area != r.area ||
		got.feasible != r.feasible || got.weighted != r.weighted {
		return fmt.Errorf("pair %s reported %+v, recomputed %+v", d, r, got)
	}
	for i := range accs {
		if accs[i] != r.accs[i] {
			return fmt.Errorf("pair %s task %d accuracy %v, recomputed %v", d, i, r.accs[i], accs[i])
		}
	}
	return nil
}

// checkCosampleCounters: every pair is new to the hardware cache, so the
// evaluator computed each one and served none from the cache.
func checkCosampleCounters(st core.EvalStats, pairs int) error {
	if st.HWCacheHits != 0 || st.HWEvals != pairs || st.HWRequests != pairs {
		return fmt.Errorf("%d pairs gave %d requests, %d evals, %d cache hits", pairs, st.HWRequests, st.HWEvals, st.HWCacheHits)
	}
	return nil
}

// jobOutcome is what a service client saw of one job.
type jobOutcome struct {
	spec     jobSpec
	status   string
	eventIDs []int // ids of the episode frames, in arrival order
	doneID   int
	result   json.RawMessage
}

// checkJob: the job succeeded, its episode frames are numbered 0..n-1
// without gaps, and the done frame's id is n.
func checkJob(o jobOutcome) error {
	if o.status != "succeeded" {
		return fmt.Errorf("job %+v ended %q", o.spec, o.status)
	}
	for i, id := range o.eventIDs {
		if id != i {
			return fmt.Errorf("job %+v: frame %d has id %d", o.spec, i, id)
		}
	}
	if len(o.eventIDs) != o.spec.Episodes || o.doneID != len(o.eventIDs) {
		return fmt.Errorf("job %+v: %d episode frames, done id %d, want %d", o.spec, len(o.eventIDs), o.doneID, o.spec.Episodes)
	}
	return nil
}

// checkJobResult: the service's result equals an in-process run of the same
// spec in every simulated field (work counters differ with warm memos and
// are left out).
func checkJobResult(got json.RawMessage, want *nasaic.Result) error {
	var r nasaic.Result
	if err := json.Unmarshal(got, &r); err != nil {
		return fmt.Errorf("undecodable result: %w", err)
	}
	g, err := json.Marshal([]any{r.Workload, r.Episodes, r.Best, r.Explored})
	if err != nil {
		return err
	}
	wnt, err := json.Marshal([]any{want.Workload, want.Episodes, want.Best, want.Explored})
	if err != nil {
		return err
	}
	if string(g) != string(wnt) {
		return fmt.Errorf("service result differs from an in-process run:\n got %s\nwant %s", g, wnt)
	}
	return nil
}

// checkJournalStates: after shutdown no recovered job is pending or running.
func checkJournalStates(states []*journal.JobState) error {
	for _, s := range states {
		if s.Status == "pending" || s.Status == "running" || s.Status == "" {
			return fmt.Errorf("journal recovers job %s as %q", s.ID, s.Status)
		}
	}
	return nil
}

// selfTestService feeds the service checks a missing frame, a perturbed
// result and a non-terminal journal state; each must be rejected.
func selfTestService(o jobOutcome, want *nasaic.Result) error {
	gap := o
	gap.eventIDs = append([]int(nil), o.eventIDs[1:]...)
	if checkJob(gap) == nil {
		return errors.New("job check accepted a dropped episode frame")
	}
	var r nasaic.Result
	if err := json.Unmarshal(o.result, &r); err != nil {
		return err
	}
	if r.Best == nil {
		r.Best = &nasaic.Solution{}
	} else {
		r.Best.LatencyCycles++
	}
	bad, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if checkJobResult(bad, want) == nil {
		return errors.New("result check accepted a perturbed latency")
	}
	if checkJournalStates([]*journal.JobState{{ID: "x", Status: "running"}}) == nil {
		return errors.New("journal check accepted a running job")
	}
	return nil
}
