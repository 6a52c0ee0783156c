package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rc4break/internal/netsim"
	"rc4break/internal/online"
	"rc4break/internal/rc4"
	"rc4break/internal/service"
	"rc4break/internal/snapshot"
	"rc4break/internal/tkip"
)

// trainKeys sizes the TKIP per-TSC model every TKIP job shares (the
// service's default).
const trainKeys = 1 << 12

// outcome is what the goldens and the equivalence checks compare for one
// job: the online result's counters and the evidence digest.
type outcome struct {
	Job      string `json:"job"`
	Success  bool   `json:"success"`
	Rank     int    `json:"rank"`
	Observed uint64 `json:"observed"`
	Rounds   int    `json:"rounds"`
	Checks   uint64 `json:"checks"`
	// Digest is snapshot.BlobKey over the evidence envelope's kind and
	// payload — the content address the service store files it under.
	Digest string `json:"digest"`
}

// sameOutcome describes how got differs from want ("" when equal).
func sameOutcome(what string, want, got outcome) string {
	if want != got {
		return fmt.Sprintf("%s: %s mismatch: want %+v, got %+v", got.Job, what, want, got)
	}
	return ""
}

// jobRun is one job of a pass.
type jobRun struct {
	outcome outcome
	latency time.Duration
	// obs counts the records or frames the job folded into evidence; bytes
	// counts capture bytes ingested (ingest-pcap only).
	obs, bytes uint64
	// problem is set when the job failed: an error, a wrong plaintext, a
	// refused submission.
	problem string
}

// passResult is one run of a workload's fixed job list.
type passResult struct {
	wall  time.Duration
	jobs  []jobRun
	notes []string
	// peakRSS is the pass's peak resident set in MB (untraced runs).
	peakRSS float64
}

func (p passResult) observations() (n uint64) {
	for _, j := range p.jobs {
		n += j.obs
	}
	return n
}

func (p passResult) bytes() (n uint64) {
	for _, j := range p.jobs {
		n += j.bytes
	}
	return n
}

// digest returns the hex content address of an evidence envelope.
func digest(evidence []byte) (string, error) {
	kind, payload, err := snapshot.Read(bytes.NewReader(evidence))
	if err != nil {
		return "", fmt.Errorf("evidence envelope: %w", err)
	}
	k := snapshot.BlobKey(kind, payload)
	return hex.EncodeToString(k[:]), nil
}

// job is one attack job and the plaintext a success must recover.
type job struct {
	name   string
	tenant string
	spec   service.JobSpec
	truth  []byte
}

// runSolo runs a job through service.SoloRun and checks the result.
func runSolo(j job) (jobRun, []byte) {
	t0 := time.Now()
	res, snap, err := service.SoloRun(j.spec)
	lat := time.Since(t0)
	return finishJob(j, res, snap, err, lat), snap
}

// finishJob turns an online result into a jobRun, checking the plaintext.
func finishJob(j job, res online.Result, snap []byte, runErr error, lat time.Duration) jobRun {
	r := jobRun{latency: lat, obs: res.Observed}
	r.outcome = outcome{Job: j.name, Success: runErr == nil, Rank: res.Rank,
		Observed: res.Observed, Rounds: res.Rounds, Checks: res.Checks}
	if runErr != nil && !errors.Is(runErr, online.ErrBudgetExhausted) {
		r.problem = fmt.Sprintf("%s: %v", j.name, runErr)
		return r
	}
	if runErr == nil && !bytes.Equal(res.Plaintext, j.truth) {
		r.problem = fmt.Sprintf("%s: recovered %x, the victim's secret is %x", j.name, res.Plaintext, j.truth)
	}
	d, err := digest(snap)
	if err != nil {
		r.problem = fmt.Sprintf("%s: %v", j.name, err)
	}
	r.outcome.Digest = d
	return r
}

// tkipTrailer is the plaintext MIC‖ICV of the demo session's injected
// packet: what a successful TKIP job must recover. It decrypts one frame
// with the real per-packet key.
func tkipTrailer() []byte {
	s := tkip.DemoSession()
	msdu := netsim.NewWiFiVictim(s, tkip.DemoPayload).MSDU
	f := s.Encapsulate(msdu, 0)
	key := tkip.MixKey(s.TK, s.TA, 0)
	plain := make([]byte, len(f.Body))
	rc4.MustNew(key[:]).XORKeyStream(plain, f.Body)
	return plain[len(msdu):]
}

// population maps a seeded victim population onto jobs: model-mode jobs at
// the service's paper budgets. Cookie jobs decode once, at the 9·2^27-record
// budget, where 6- to 8-byte cookies recover; a geometric cadence would make
// each job's work hinge on its victim's noise draw, and the seed's share of
// early recoveries would move every timing.
func population(seed int64, victims, tkipEvery, tenants int, lens []int) []job {
	pop := netsim.Population(netsim.PopulationConfig{Victims: victims, Tenants: tenants,
		Seed: seed, TKIPEvery: tkipEvery, CookieLens: lens})
	trailer := tkipTrailer()
	jobs := make([]job, len(pop))
	for i, v := range pop {
		jobs[i] = job{name: fmt.Sprintf("%s-%s-%d", v.Attack, "model", i), tenant: v.Tenant}
		if v.Attack == "tkip" {
			jobs[i].spec = service.JobSpec{Attack: "tkip", Mode: "model", Seed: v.Seed,
				Budget: 9 << 20, FirstDecode: 1 << 20, MaxCandidates: 1 << 12, TrainKeys: trainKeys}
			jobs[i].truth = trailer
		} else {
			jobs[i].spec = service.JobSpec{Attack: "cookie", Mode: "model", Seed: v.Seed, Secret: v.Secret,
				Budget: 9 << 27, FirstDecode: 9 << 27, MaxCandidates: 1 << 10}
			jobs[i].truth = []byte(v.Secret)
		}
	}
	return jobs
}

func describeJobs(jobs []job) {
	for _, j := range jobs {
		s, _ := j.spec.Normalize()
		fmt.Printf("  job %-16s %s/%s budget %d first decode %d every %d chunk %d max candidates %d\n",
			j.name, s.Attack, s.Mode, s.Budget, s.FirstDecode, s.DecodeEvery, s.CaptureChunk, s.MaxCandidates)
	}
}

// goldenPath is where a workload's goldens live, next to the benchmark's
// sources.
func goldenPath(name string) string {
	return filepath.Join(benchDir(), "goldens", name+".json")
}

// benchDir locates the benchmark's source directory: the run's working
// directory is the repository root, tests run inside the directory itself.
func benchDir() string {
	if _, err := os.Stat("goldens"); err == nil {
		return "."
	}
	return "perfbench"
}

func loadGoldens(name string) (map[string]outcome, error) {
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		return nil, fmt.Errorf("goldens: %w", err)
	}
	var g []outcome
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("goldens %s: %w", name, err)
	}
	m := make(map[string]outcome, len(g))
	for _, o := range g {
		m[o.Job] = o
	}
	return m, nil
}

func saveGoldens(name string, jobs []jobRun) error {
	g := make([]outcome, len(jobs))
	for i, j := range jobs {
		g[i] = j.outcome
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(name), append(b, '\n'), 0o644)
}
