package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nasaic/internal/journal"
	"nasaic/pkg/nasaic"
)

const (
	// serviceEpisodes is a short job's β: long enough to stream several
	// episode frames, short enough that the service layers dominate.
	serviceEpisodes = 4
	// serviceSeedPool is how many seeds the jobs cycle through, so the
	// shared memos warm up and repeated specs can be cross-checked.
	serviceSeedPool = 4
	// daemonSetups is how many times a run brings the pair of daemons up;
	// setup_s is the median, and the last pair serves the jobs.
	daemonSetups = 3
	// serviceTailWindow is how many consecutive jobs share one tail
	// percentile (p95, with 12 jobs beyond it).
	serviceTailWindow = 250
	// journalAppendJobs is how many job record sequences each of the two
	// appenders writes when timing journal appends.
	journalAppendJobs = 40

	serviceClusterKey = "perfbench-cluster-key"
)

// serviceTenants are the two tenants of the -tenants file, one per client.
var serviceTenants = []struct{ name, key string }{
	{"alpha", "perfbench-alpha-key"},
	{"beta", "perfbench-beta-key"},
}

// jobSpec is the POST /v1/jobs body of a short job: φ=0, refine off, one
// evaluation worker.
type jobSpec struct {
	Workload string `json:"workload"`
	Episodes int    `json:"episodes"`
	HWSteps  int    `json:"hw_steps"`
	Seed     int64  `json:"seed"`
	Refine   bool   `json:"refine"`
	Workers  int    `json:"workers"`
}

// jobSequence returns client c's k-th job: workloads cycle W1→W3, seeds
// cycle through a pool derived from the run's seed, offset per client.
func jobSequence(seed int64, c, k int) jobSpec {
	return jobSpec{
		Workload: paperWorkloads[k%len(paperWorkloads)],
		Episodes: serviceEpisodes,
		Seed:     seed*100 + int64((k/len(paperWorkloads)+c)%serviceSeedPool) + 1,
		Workers:  1,
	}
}

// inProcess runs the spec through pkg/nasaic in this process.
func (s jobSpec) inProcess(ctx context.Context) (*nasaic.Result, error) {
	return nasaic.Run(ctx, nasaic.WithWorkload(s.Workload), nasaic.WithEpisodes(s.Episodes),
		nasaic.WithHWSteps(s.HWSteps), nasaic.WithSeed(s.Seed), nasaic.WithRefine(s.Refine),
		nasaic.WithWorkers(s.Workers))
}

// daemon is one nasaicd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been waited for
	err  error
}

// freeAddr returns a loopback address with a port nobody listens on now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startDaemon(bin, dir string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-datadir", dir}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop asks the daemon to shut down and waits for it; a daemon that does not
// exit within the grace period is killed.
func (d *daemon) stop(grace time.Duration) error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.err
	case <-time.After(grace):
		_ = d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s did not exit within %s", d.base, grace)
	}
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitReady polls url until ok accepts the response body.
func waitReady(ctx context.Context, d *daemon, path string, ok func([]byte) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up: %v", d.base, d.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := http.Get(d.base + path); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s%s not ready after 30s", d.base, path)
}

// pair is a coordinator with its one worker.
type pair struct {
	dir           string
	worker, coord *daemon
}

// startPair brings up the worker, then the coordinator, each with its own
// datadir, and returns once the coordinator reports the worker healthy (the
// worker is placeable).
func startPair(ctx context.Context, bin, dir string) (*pair, time.Duration, error) {
	tenants := map[string]any{"tenants": []map[string]string{
		{"name": serviceTenants[0].name, "key": serviceTenants[0].key},
		{"name": serviceTenants[1].name, "key": serviceTenants[1].key},
	}}
	raw, err := json.Marshal(tenants)
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	tenantsFile := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenantsFile, raw, 0o600); err != nil {
		return nil, 0, err
	}
	p := &pair{dir: dir}
	start := time.Now()
	if p.worker, err = startDaemon(bin, filepath.Join(dir, "worker"), "-role", "worker", "-cluster-key", serviceClusterKey); err != nil {
		return nil, 0, err
	}
	if err := waitReady(ctx, p.worker, "/healthz", func([]byte) bool { return true }); err != nil {
		p.kill()
		return nil, 0, err
	}
	if p.coord, err = startDaemon(bin, filepath.Join(dir, "coordinator"), "-role", "coordinator",
		"-workers", p.worker.base, "-cluster-key", serviceClusterKey, "-tenants", tenantsFile); err != nil {
		p.kill()
		return nil, 0, err
	}
	placeable := func(body []byte) bool {
		var h struct {
			Workers []struct {
				Healthy bool `json:"healthy"`
			} `json:"workers"`
		}
		return json.Unmarshal(body, &h) == nil && len(h.Workers) == 1 && h.Workers[0].Healthy
	}
	if err := waitReady(ctx, p.coord, "/healthz", placeable); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// stop shuts the coordinator down, then the worker.
func (p *pair) stop() error {
	var errs []error
	if p.coord != nil {
		errs = append(errs, p.coord.stop(15*time.Second))
	}
	if p.worker != nil {
		errs = append(errs, p.worker.stop(15*time.Second))
	}
	return errors.Join(errs...)
}

func (p *pair) kill() {
	if p.coord != nil {
		p.coord.kill()
	}
	if p.worker != nil {
		p.worker.kill()
	}
}

// jobTiming is one job as a client timed it.
type jobTiming struct {
	start                  time.Time
	submitted, first, last time.Time
	done                   time.Time
	frames                 int
	sseBytes               int
}

// client submits jobs and follows their SSE streams.
type client struct {
	http *http.Client
	base string
	key  string
}

func (c *client) do(req *http.Request) (*http.Response, error) {
	req.Header.Set("Authorization", "Bearer "+c.key)
	return c.http.Do(req)
}

// runJob submits spec, follows its events to the done frame, and returns
// what the client saw.
func (c *client) runJob(ctx context.Context, spec jobSpec) (jobOutcome, jobTiming, error) {
	out := jobOutcome{spec: spec}
	var t jobTiming
	body, err := json.Marshal(spec)
	if err != nil {
		return out, t, err
	}
	t.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return out, t, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return out, t, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	decErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	t.submitted = time.Now()
	if resp.StatusCode != http.StatusAccepted || decErr != nil {
		return out, t, fmt.Errorf("submit %+v: HTTP %d (%v)", spec, resp.StatusCode, decErr)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return out, t, err
	}
	resp, err = c.do(req)
	if err != nil {
		return out, t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, t, fmt.Errorf("events of %s: HTTP %d", sub.ID, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	var event, data string
	id := -1
	for {
		line, err := r.ReadString('\n')
		t.sseBytes += len(line)
		if err != nil {
			return out, t, fmt.Errorf("events of %s: %w before the done frame", sub.ID, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if event == "" {
				continue
			}
			now := time.Now()
			t.frames++
			switch event {
			case "episode":
				if len(out.eventIDs) == 0 {
					t.first = now
				}
				t.last = now
				out.eventIDs = append(out.eventIDs, id)
			case "done":
				t.done = now
				out.doneID = id
				var snap struct {
					Status string          `json:"status"`
					Result json.RawMessage `json:"result"`
				}
				if err := json.Unmarshal([]byte(data), &snap); err != nil {
					return out, t, fmt.Errorf("done frame of %s: %w", sub.ID, err)
				}
				out.status, out.result = snap.Status, snap.Result
				// Drain to EOF so the connection goes back to the pool.
				n, _ := io.Copy(io.Discard, r)
				t.sseBytes += int(n)
				return out, t, nil
			default:
				out.eventIDs = append(out.eventIDs, -1) // a reset or unknown frame breaks the id sequence
			}
			event, data, id = "", "", -1
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			if id, err = strconv.Atoi(line[len("id: "):]); err != nil {
				return out, t, fmt.Errorf("events of %s: bad id line %q", sub.ID, line)
			}
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
}

// loadResult collects a closed loop's jobs.
type loadResult struct {
	outcomes []jobOutcome
	timings  []jobTiming
	traced   []bool
	elapsed  time.Duration
}

// closedLoop runs one client per key until the deadline, at least two jobs
// each; a client submits its next job only after the previous one's done
// frame. With alternate set, every other job of each client is traced.
func closedLoop(ctx context.Context, tr *tracer, alternate bool, base string, keys []string, seed int64, stop time.Time) (*loadResult, error) {
	var (
		mu   sync.Mutex
		res  = &loadResult{}
		wg   sync.WaitGroup
		errs = make([]error, len(keys))
	)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(keys)}}
	defer hc.CloseIdleConnections()
	start := time.Now()
	for c, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := &client{http: hc, base: base, key: key}
			for k := 0; k < 2 || time.Now().Before(stop); k++ {
				traced := alternate && k%2 == 0
				out, t, err := cl.runJob(ctx, jobSequence(seed, c, k))
				if err != nil {
					errs[c] = err
					return
				}
				if traced {
					root := tr.record("service.job", 0, t.start, t.done)
					tr.record("jobs.submit", root, t.start, t.submitted)
					tr.record("jobs.first_event", root, t.start, t.first)
					tr.record("jobs.done_lag", root, t.last, t.done)
				}
				mu.Lock()
				res.outcomes = append(res.outcomes, out)
				res.timings = append(res.timings, t)
				res.traced = append(res.traced, traced)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return res, nil
}

func latencies(ts []jobTiming, keep func(int) bool) (job, first []float64) {
	for i, t := range ts {
		if keep(i) {
			job = append(job, ms(t.done.Sub(t.start)))
			first = append(first, ms(t.first.Sub(t.start)))
		}
	}
	return job, first
}

func runService(ctx context.Context, e *env) (*report, error) {
	if e.nasaicd == "" {
		return nil, errors.New("service needs -nasaicd (run through run.sh)")
	}
	rep := newReport()

	var setups []float64
	var p *pair
	for r := 0; r < daemonSetups; r++ {
		var d time.Duration
		var err error
		p, d, err = startPair(ctx, e.nasaicd, filepath.Join(e.tmp, fmt.Sprintf("pair%d", r)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if r < daemonSetups-1 {
			if err := p.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up pair: %w", err)
			}
		}
	}
	defer p.kill()

	keys := []string{serviceTenants[0].key, serviceTenants[1].key}
	cpuC0, err1 := cpuTime(p.coord.pid())
	cpuW0, err2 := cpuTime(p.worker.pid())
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	alloc0 := totalAlloc()
	load, err := closedLoop(ctx, e.tr, e.trace, p.coord.base, keys, e.seed, e.deadline())
	if err != nil {
		return nil, err
	}
	alloc1 := totalAlloc()
	cpuC1, err1 := cpuTime(p.coord.pid())
	cpuW1, err2 := cpuTime(p.worker.pid())
	rssC, err3 := peakRSSMB(p.coord.pid())
	rssW, err4 := peakRSSMB(p.worker.pid())
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return nil, err
	}
	jobs := len(load.outcomes)
	rep.attempted = jobs

	// The hop: the same job sequence sent straight to the worker.
	var direct *loadResult
	if e.trace {
		half := time.Duration(e.seconds * float64(time.Second) / 2)
		direct, err = closedLoop(ctx, e.tr, false, p.worker.base, []string{serviceClusterKey, serviceClusterKey}, e.seed, time.Now().Add(half))
		if err != nil {
			return nil, fmt.Errorf("direct-to-worker jobs: %w", err)
		}
	}
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("stopping daemons: %w", err)
	}

	jobMS, firstMS := latencies(load.timings, func(int) bool { return true })
	windows := chunks(jobMS, serviceTailWindow)
	rep.setE2E("setup_s", median(setups))
	rep.setE2E("ops_per_s", float64(jobs)/load.elapsed.Seconds())
	rep.setE2E("op_ms_p50", median(jobMS))
	rep.setE2E("first_event_ms_p50", median(firstMS))
	rep.setE2E("alloc_kb_per_op", float64(alloc1-alloc0)/1024/float64(jobs))
	rep.setE2E("peak_rss_mb", rssC+rssW)
	fmt.Printf("service: %d jobs in %.2fs, job tail %.2f ms (median over %d windows of each window's p%g)\n",
		jobs, load.elapsed.Seconds(), windowTail(windows), len(windows), 100*tailQuantile(len(windows[0])))

	// Checks: every job, every result against an in-process run, the
	// journals after shutdown.
	refs := map[jobSpec]*nasaic.Result{}
	var specs []jobSpec
	for _, o := range load.outcomes {
		if o.status != "succeeded" {
			rep.failed++
			fmt.Printf("service: job %+v ended %q\n", o.spec, o.status)
			continue
		}
		if err := checkJob(o); err != nil {
			rep.problem("service: %v", err)
			continue
		}
		ref, ok := refs[o.spec]
		if !ok {
			if ref, err = o.spec.inProcess(ctx); err != nil {
				return nil, err
			}
			refs[o.spec] = ref
			specs = append(specs, o.spec)
		}
		if err := checkJobResult(o.result, ref); err != nil {
			rep.problem("service %+v: %v", o.spec, err)
		}
	}
	var journalBytes int64
	var segments int
	for _, role := range []string{"coordinator", "worker"} {
		dir := filepath.Join(p.dir, role, "journal")
		n, segs, err := dirSize(dir)
		if err != nil {
			return nil, err
		}
		journalBytes += n
		segments += segs
		jn, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return nil, err
		}
		if err := checkJournalStates(jn.States()); err != nil {
			rep.problem("service %s journal: %v", role, err)
		}
		if err := jn.Close(); err != nil {
			return nil, err
		}
	}
	for _, o := range load.outcomes {
		if ref := refs[o.spec]; ref != nil {
			if err := selfTestService(o, ref); err != nil {
				rep.problem("service self-test: %v", err)
			}
			break
		}
	}
	sort.Slice(specs, func(i, j int) bool {
		a, b := specs[i], specs[j]
		return a.Workload < b.Workload || (a.Workload == b.Workload && a.Seed < b.Seed)
	})
	var lines []string
	for _, s := range specs {
		raw, err := json.Marshal([]any{s, refs[s].Best, refs[s].Explored})
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(raw))
	}
	rep.digest = append(rep.digest, fmt.Sprintf("service %s specs=%d", digestOf(lines), len(specs)))

	if e.trace {
		var frames, sse []float64
		for _, t := range load.timings {
			frames = append(frames, float64(t.frames))
			sse = append(sse, float64(t.sseBytes)/1024)
		}
		allJobs := jobs + len(direct.outcomes)
		rep.setLayer("jobs.submit_ms_p50", median(e.tr.durations("jobs.submit", time.Millisecond)))
		rep.setLayer("jobs.done_lag_ms_p50", median(e.tr.durations("jobs.done_lag", time.Millisecond)))
		rep.setLayer("jobs.frames_per_job", mean(frames))
		rep.setLayer("jobs.sse_kb_per_job", mean(sse))
		rep.setLayer("journal.kb_per_job", float64(journalBytes)/1024/float64(allJobs))
		rep.setLayer("journal.segments", float64(segments))
		rep.setLayer("cluster.coordinator_cpu_ms_per_job", ms(cpuC1-cpuC0)/float64(jobs))
		rep.setLayer("jobs.worker_cpu_ms_per_job", ms(cpuW1-cpuW0)/float64(jobs))
		directMS, _ := latencies(direct.timings, func(int) bool { return true })
		rep.setLayer("cluster.hop_ms_p50", median(jobMS)-median(directMS))
		tracedMS, _ := latencies(load.timings, func(i int) bool { return load.traced[i] })
		plainMS, _ := latencies(load.timings, func(i int) bool { return !load.traced[i] })
		rep.setLayer("trace.overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))
		appendUS, err := journalAppendUS(ctx, e, load.outcomes[0])
		if err != nil {
			return nil, err
		}
		rep.setLayer("journal.append_us_p50", appendUS)
	}
	return rep, nil
}

// dirSize returns the total bytes of the files under dir and how many of
// them are journal segments.
func dirSize(dir string) (int64, int, error) {
	var n int64
	segs := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		if strings.HasSuffix(d.Name(), ".wal") {
			segs++
		}
		return nil
	})
	return n, segs, err
}

// journalAppendUS opens a journal in a temp dir and has two appenders each
// write journalAppendJobs jobs' record sequences (submitted, running, one
// event per episode, finished), timing every Append; it returns the median
// in µs.
func journalAppendUS(ctx context.Context, e *env, o jobOutcome) (float64, error) {
	dir := filepath.Join(e.tmp, "journal-append")
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	spec, err := json.Marshal(o.spec)
	if err != nil {
		jn.Close()
		return 0, err
	}
	event := json.RawMessage(`{"episode":0,"reward":0}`)
	var (
		mu   sync.Mutex
		durs []float64
		wg   sync.WaitGroup
		errs = make([]error, 2)
	)
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < journalAppendJobs && ctx.Err() == nil; k++ {
				id := fmt.Sprintf("j%d-%d", a, k)
				recs := []journal.Record{
					{Type: journal.TypeSubmitted, Job: id, Tenant: serviceTenants[a].name, Spec: spec},
					{Type: journal.TypeRunning, Job: id},
				}
				for ep := 0; ep < o.spec.Episodes; ep++ {
					recs = append(recs, journal.Record{Type: journal.TypeEvent, Job: id, Seq: ep, Event: event})
				}
				recs = append(recs, journal.Record{Type: journal.TypeFinished, Job: id, Status: "succeeded", Result: o.result})
				for _, rec := range recs {
					t0 := time.Now()
					if err := jn.Append(rec); err != nil {
						errs[a] = err
						return
					}
					t1 := time.Now()
					e.tr.record("journal.append", 0, t0, t1)
					mu.Lock()
					durs = append(durs, us(t1.Sub(t0)))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, jn.Close())...); err != nil {
		return 0, err
	}
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	return median(durs), nil
}
