package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rc4break/internal/obs"
	"rc4break/internal/service"
	"rc4break/internal/tkip"
)

// Service-mix traffic: an open loop at one fixed arrival rate. The rate
// keeps the scheduler busy without a growing backlog on a 2-CPU machine,
// so latency shows queueing without the run turning into a drain test.
const (
	arrivalsPerSecond = 3.0
	serviceTenants    = 3
	// Job kinds follow the victim index, so every seed runs the same mix:
	// one TKIP job in eight, and every third cookie job a short exact-mode
	// job (capture granules through the scheduler and, with two decode
	// rounds, a checkpoint blob write between them). Cookie model jobs are
	// the fastest kind and the majority, so the median falls among them;
	// exact jobs are the slowest, and numerous enough that the tail
	// percentile falls among them for every seed.
	tkipEvery  = 8
	exactEvery = 3
	// pollInterval spaces the client's status sweeps; it bounds how late a
	// terminal state is seen.
	pollInterval = 10 * time.Millisecond
)

// serviceFixture is a running attack service on loopback HTTP plus the
// seeded job schedule the load generator replays against it.
type serviceFixture struct {
	env     *env
	model   *tkip.PerTSCModel
	trainS  float64
	srv     *server
	jobs    []job
	arrival []time.Duration
}

// server is one service.Server behind a real HTTP listener.
type server struct {
	dir       string
	srv       *service.Server
	hs        *http.Server
	served    chan struct{}
	base      string
	client    *http.Client
	transport *http.Transport
	capacity  int
}

func startServer(workDir string, journal *obs.Journal) (*server, error) {
	dir, err := os.MkdirTemp(workDir, "attackd-*")
	if err != nil {
		return nil, err
	}
	s := &server{dir: dir, capacity: runtime.NumCPU(), served: make(chan struct{})}
	store, err := service.OpenStore(dir)
	if err == nil {
		s.srv, err = service.New(service.Config{Store: store, Capacity: s.capacity, Tracer: journal})
	}
	var ln net.Listener
	if err == nil {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	s.base = "http://" + ln.Addr().String()
	// The client holds at most nproc connections: one for submissions, the
	// rest for status sweeps.
	s.transport = &http.Transport{MaxConnsPerHost: s.capacity, MaxIdleConnsPerHost: s.capacity}
	s.client = &http.Client{Transport: s.transport, Timeout: time.Minute}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("service never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // in-flight requests are the benchmark's own; none remain
	<-s.served
	s.transport.CloseIdleConnections()
	s.srv.Drain()
	os.RemoveAll(s.dir)
}

func setupServiceMix(e *env) (fixture, error) {
	model, trainS, err := trainModel()
	if err != nil {
		return nil, err
	}
	f := &serviceFixture{env: e, model: model, trainS: trainS}
	n := int(arrivalsPerSecond * e.seconds)
	if n < 1 {
		n = 1
	}
	f.jobs = population(e.seed, n, tkipEvery, serviceTenants, nil)
	// Each job runs single-threaded, so the nproc scheduler slots map onto
	// the nproc CPUs and two jobs holding slots do not slow each other down.
	cookies := 0
	for i := range f.jobs {
		j := &f.jobs[i]
		j.spec.Workers = 1
		if j.spec.Attack != "cookie" {
			continue
		}
		if cookies++; cookies%exactEvery == 0 {
			j.name = strings.Replace(j.name, "model", "exact", 1)
			j.spec.Mode, j.spec.Budget, j.spec.FirstDecode = "exact", 1<<12, 1<<11
		}
	}
	// Arrivals are evenly spaced at the fixed rate with seeded jitter of up
	// to ±10% of a gap. Wider jitter makes which jobs overlap on the slots
	// (and so every latency percentile) a property of the seed's schedule
	// rather than of the service.
	rng := rand.New(rand.NewSource(e.seed))
	gap := 1 / arrivalsPerSecond
	for i := 0; i < n; i++ {
		at := (float64(i) + 0.1*(2*rng.Float64()-1)) * gap
		if at < 0 {
			at = 0
		}
		f.arrival = append(f.arrival, time.Duration(at*float64(time.Second)))
	}
	if f.srv, err = startServer(e.workDir, nil); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *serviceFixture) describe() {
	fmt.Printf("  %d jobs over %d tenants at %.1f jobs/s (open loop), capacity %d, client connections ≤ %d\n",
		len(f.jobs), serviceTenants, arrivalsPerSecond, f.srv.capacity, f.srv.capacity)
	describeJobs(f.jobs)
}

func (f *serviceFixture) close() { f.srv.close() }

// sent is the generator's record of one submission.
type sent struct {
	id      string
	late    time.Duration
	submit  time.Duration
	problem string
}

// schedule replays the job schedule against s and waits for every admitted
// job to reach a terminal state.
type scheduleRun struct {
	start    time.Time
	sent     []sent
	terminal map[string]time.Time
	final    map[string]service.JobStatus
	statusMS []float64
	lastSend time.Time
}

func (f *serviceFixture) run(s *server) (*scheduleRun, error) {
	r := &scheduleRun{sent: make([]sent, len(f.jobs)), terminal: map[string]time.Time{}, final: map[string]service.JobStatus{}}
	r.start = time.Now().Add(20 * time.Millisecond)
	var mu sync.Mutex
	submitted := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, j := range f.jobs {
			due := r.start.Add(f.arrival[i])
			time.Sleep(time.Until(due))
			t0 := time.Now()
			id, err := s.submit(j)
			snt := sent{id: id, late: t0.Sub(due), submit: time.Since(t0)}
			if err != nil {
				snt.problem = fmt.Sprintf("%s: submit: %v", j.name, err)
			}
			mu.Lock()
			r.sent[i] = snt
			submitted++
			r.lastSend = t0
			mu.Unlock()
		}
	}()
	deadline := r.start.Add(time.Duration(f.env.seconds*float64(time.Second)) + 2*time.Minute)
	for {
		t0 := time.Now()
		sts, err := s.list()
		now := time.Now()
		if err != nil {
			<-done
			return nil, err
		}
		r.statusMS = append(r.statusMS, float64(now.Sub(t0).Microseconds())/1e3)
		for _, st := range sts {
			if _, seen := r.terminal[st.ID]; !seen && (st.State == service.StateDone || st.State == service.StateFailed) {
				r.terminal[st.ID] = now
				r.final[st.ID] = st
			}
		}
		mu.Lock()
		all := submitted == len(f.jobs)
		pending := 0
		for _, snt := range r.sent[:submitted] {
			if _, ok := r.terminal[snt.id]; snt.problem == "" && !ok {
				pending++
			}
		}
		mu.Unlock()
		if all && pending == 0 {
			break
		}
		if now.After(deadline) {
			<-done
			return nil, fmt.Errorf("%d jobs still unfinished at the deadline", pending)
		}
		time.Sleep(pollInterval)
	}
	<-done
	return r, nil
}

// pass turns one schedule replay into per-job results: latency from each
// job's scheduled send to the first sweep that saw it terminal. A refused
// or failed submission counts as failed and as missing every latency limit.
func (f *serviceFixture) passOn(s *server) (passResult, *scheduleRun, error) {
	r, err := f.run(s)
	if err != nil {
		return passResult{}, nil, err
	}
	var p passResult
	var last time.Time
	backlog := 0
	var late []float64
	for i, j := range f.jobs {
		snt := r.sent[i]
		late = append(late, float64(snt.late.Microseconds())/1e3)
		jr := jobRun{outcome: outcome{Job: j.name}, problem: snt.problem}
		if snt.problem != "" {
			jr.latency = time.Hour // a refused job misses every latency limit
			p.jobs = append(p.jobs, jr)
			continue
		}
		end := r.terminal[snt.id]
		if end.After(last) {
			last = end
		}
		if end.After(r.lastSend) {
			backlog++
		}
		st := r.final[snt.id]
		jr.latency = end.Sub(r.start.Add(f.arrival[i]))
		jr.obs = st.Observed
		jr.outcome = outcome{Job: j.name, Success: st.Success, Rank: st.Rank, Observed: st.Observed,
			Rounds: st.Rounds, Checks: st.Checks}
		switch {
		case st.State != service.StateDone:
			jr.problem = fmt.Sprintf("%s: job %s ended %s: %s", j.name, st.ID, st.State, st.Error)
		case st.Success && st.Plaintext != hex.EncodeToString(j.truth):
			jr.problem = fmt.Sprintf("%s: recovered %s, the victim's secret is %x", j.name, st.Plaintext, j.truth)
		}
		p.jobs = append(p.jobs, jr)
	}
	p.wall = last.Sub(r.start)
	// Evidence is fetched after the schedule, outside every latency.
	for i := range p.jobs {
		if p.jobs[i].problem != "" {
			continue
		}
		ev, err := s.evidence(r.sent[i].id)
		if err == nil {
			p.jobs[i].outcome.Digest, err = digest(ev)
		}
		if err != nil {
			p.jobs[i].problem = fmt.Sprintf("%s: evidence: %v", f.jobs[i].name, err)
		}
	}
	byKind := map[string][]float64{}
	for _, j := range p.jobs {
		kind := j.outcome.Job[:strings.LastIndex(j.outcome.Job, "-")]
		byKind[kind] = append(byKind[kind], j.latency.Seconds())
	}
	for _, kind := range []string{"tkip-model", "cookie-model", "cookie-exact"} {
		lat := byKind[kind]
		p.notes = append(p.notes, fmt.Sprintf("%s: %d jobs, latency p50 %.3fs, max %.3fs", kind, len(lat), median(lat), maxOf(lat)))
	}
	p.notes = append(p.notes, fmt.Sprintf("generator lateness p50 %.2f ms, max %.2f ms; backlog %d jobs unfinished at the last send; status sweep p50 %.2f ms",
		median(late), maxOf(late), backlog, median(r.statusMS)))
	return p, r, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func (f *serviceFixture) pass() (passResult, error) {
	p, _, err := f.passOn(f.srv)
	return p, err
}

func (s *server) submit(j job) (string, error) {
	body, err := json.Marshal(service.SubmitRequest{Tenant: j.tenant, Spec: j.spec})
	if err != nil {
		return "", err
	}
	resp, err := s.client.Post(s.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	return st.ID, nil
}

func (s *server) list() ([]service.JobStatus, error) {
	resp, err := s.client.Get(s.base + "/api/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list jobs: HTTP %d", resp.StatusCode)
	}
	var sts []service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&sts)
	return sts, err
}

func (s *server) evidence(id string) ([]byte, error) {
	resp, err := s.client.Get(s.base + "/api/v1/jobs/" + id + "/evidence")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads the named series from the server's /metrics.
func (s *server) scrape(names ...string) (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && want[fields[0]] {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", fields[0], err)
			}
			out[fields[0]] = v
		}
	}
	return out, sc.Err()
}

// trace replays the schedule against a second server whose Tracer records
// the job spans, then re-runs every job through SoloRun: the service must
// reproduce each solo run's outcome and evidence bytes.
func (f *serviceFixture) trace(untraced passResult, t *tracer) error {
	journal := obs.NewJournal("attackd", 1<<18)
	s, err := startServer(f.env.workDir, journal)
	if err != nil {
		return err
	}
	defer s.close()
	p, r, err := f.passOn(s)
	if err != nil {
		return err
	}
	for _, note := range p.notes {
		fmt.Println(note)
	}
	for i, j := range p.jobs {
		t.out.op(j.problem, sameOutcome("repeat", untraced.jobs[i].outcome, j.outcome))
		if j.problem != "" {
			continue
		}
		solo, snap := runSolo(f.jobs[i])
		ev, err := s.evidence(r.sent[i].id)
		eq := ""
		if err != nil || !bytes.Equal(ev, snap) {
			eq = fmt.Sprintf("%s: service evidence differs from SoloRun's (%v)", j.outcome.Job, err)
		}
		t.out.op(solo.problem, sameOutcome("SoloRun equivalence", solo.outcome, j.outcome), eq)
	}
	t.wall = p.wall
	t.obs = p.observations()

	m, err := s.scrape("attackd_granule_seconds_sum", "attackd_decode_seconds_total")
	if err != nil {
		return err
	}
	slot := m["attackd_granule_seconds_sum"] + m["attackd_decode_seconds_total"]
	t.set("service.slot_busy_s", slot)
	t.set("service.slot_util", ratio(slot, float64(s.capacity)*p.wall.Seconds()))
	var submit, late []float64
	for _, snt := range r.sent {
		submit = append(submit, float64(snt.submit.Microseconds())/1e3)
		late = append(late, float64(snt.late.Microseconds())/1e3)
	}
	t.set("service.submit_p50_ms", median(submit))
	t.set("service.status_p50_ms", median(r.statusMS))
	t.set("loadgen.late_p50_ms", median(late))
	t.set("loadgen.late_max_ms", maxOf(late))
	blobs, err := os.ReadDir(filepath.Join(s.dir, "blobs"))
	if err != nil {
		return err
	}
	var size int64
	for _, b := range blobs {
		if info, err := b.Info(); err == nil {
			size += info.Size()
		}
	}
	t.set("service.store_blobs", float64(len(blobs)))
	t.set("service.store_bytes", float64(size))
	_, dropped := journal.Stats()
	t.set("obs.dropped_spans", float64(dropped))
	t.set("tkip.train_s", f.trainS)
	jobSpans(t, journal.Snapshot())
	return nil
}

// jobSpans books the service's job spans into the ledger. Jobs overlap, so
// the ledger is over job-seconds (the sum of job.run spans): slot-held
// capture granules and decode rounds, and the waits before and between
// them (slot queueing plus the candidate walks and checkpoint writes that
// run without a slot). What follows a job's last slot — the final walk and
// the terminal persist — is left unexplained.
func jobSpans(t *tracer, recs []obs.Record) {
	children := map[uint64][]obs.Record{}
	var runs []obs.Record
	for _, r := range recs {
		switch r.Name {
		case "job.run":
			runs = append(runs, r)
		case "job.granule", "job.decode":
			children[r.Parent] = append(children[r.Parent], r)
		}
	}
	var base, wait time.Duration
	for _, run := range runs {
		base += time.Duration(run.Dur)
		at := run.Start
		for _, c := range children[run.Span] { // journal order is end order: ascending start within a job
			if c.Start > at {
				wait += time.Duration(c.Start - at)
			}
			at = c.Start + c.Dur
			layer := "service.capture"
			if c.Name == "job.decode" {
				layer = "service.decode"
			}
			t.add(layer, "spans", time.Duration(c.Dur), 1)
		}
	}
	t.add("service.queue_wait", "jobs", wait, uint64(len(runs)))
	t.set("service.queue_wait_s", wait.Seconds())
	t.ledgerBase, t.base = base, "job-seconds (sum of job.run spans)"
	if len(runs) == 0 {
		t.out.op("service: no job spans recorded")
	}
}
