package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"golts/internal/serve"
)

// jobSample is one job as its client saw it.
type jobSample struct {
	idx      int
	key      string
	start    time.Time
	submitMs float64 // POST /jobs round trip
	firstMs  float64 // submit to first streamed row: queue wait + build
	totalMs  float64 // submit to last row
	digest   string
	rows     []byte
	err      error
}

// serveStats is the part of GET /stats the benchmark reads.
type serveStats struct {
	QueueDepth int `json:"queue_depth"`
	Cache      struct {
		Hits, Misses int64
	} `json:"cache"`
}

func getStats(c *http.Client, url string) (serveStats, error) {
	var st serveStats
	resp, err := c.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// doJob submits one job, streams its rows to the end and confirms the
// job finished in state "done" with one row per cycle.
func doJob(c *http.Client, url string, idx int, key string, body []byte, cycles int) jobSample {
	s := jobSample{idx: idx, key: key, start: time.Now()}
	fail := func(format string, args ...any) jobSample {
		s.err = fmt.Errorf("job %d: "+format, append([]any{idx}, args...)...)
		return s
	}
	resp, err := c.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fail("submit: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.submitMs = msSince(s.start)
	if resp.StatusCode != http.StatusAccepted {
		return fail("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var acc struct{ ID string }
	if err := json.Unmarshal(raw, &acc); err != nil || acc.ID == "" {
		return fail("submit: no job id in %q", raw)
	}

	resp, err = c.Get(url + "/jobs/" + acc.ID + "/rows")
	if err != nil {
		return fail("rows: %v", err)
	}
	br := bufio.NewReader(resp.Body)
	header, err := br.ReadBytes('\n')
	if err == nil {
		var first []byte
		first, err = br.ReadBytes('\n')
		s.firstMs = msSince(s.start)
		s.rows = append(header, first...)
	}
	if err == nil {
		var rest []byte
		rest, err = io.ReadAll(br)
		s.rows = append(s.rows, rest...)
	}
	resp.Body.Close()
	s.totalMs = msSince(s.start)
	if err != nil {
		return fail("rows: %v", err)
	}
	s.digest = digestBytes(s.rows)

	resp, err = c.Get(url + "/jobs/" + acc.ID)
	if err != nil {
		return fail("status: %v", err)
	}
	var st struct {
		State string
		Error string
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "done" {
		return fail("ended in state %q (%s) %v", st.State, st.Error, err)
	}
	if n := bytes.Count(s.rows, []byte("\n")); n != cycles+1 {
		return fail("streamed %d rows for %d cycles", n, cycles)
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// runServe is the end-to-end round of a serve workload: an in-process
// job service behind a loopback HTTP server, driven by serveClients
// closed-loop clients, each submitting its next job only when the last
// row of its previous one has arrived. With tr set, every job also
// leaves client-side spans and /stats is polled for the queue depth.
func runServe(w workload, spec roundSpec, tr *tracer) (*roundResult, error) {
	gen, err := newServeGen(w, spec.Seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := serve.New(serve.Config{Concurrency: serveClients})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	res := &roundResult{BuildS: time.Since(t0).Seconds(), JobDigests: map[int]string{}}

	// loop runs the clients over successive job indices until done(i)
	// says that job i should not be started.
	next := 0
	loop := func(done func(i int) bool) []jobSample {
		var mu sync.Mutex
		var all []jobSample
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					if done(i) {
						mu.Unlock()
						return
					}
					next++
					mu.Unlock()
					key, body := gen.job(i)
					s := doJob(client, ts.URL, i, key, body, w.JobCycles)
					mu.Lock()
					all = append(all, s)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
		return all
	}

	warm := loop(func(i int) bool { return i >= serveWarmJobs })
	res.SetupS = time.Since(t0).Seconds()

	// Queue-depth poller (traced rounds only: it is a third connection).
	maxDepth := 0
	stopPoll := make(chan struct{})
	var poll sync.WaitGroup
	if tr != nil {
		poll.Add(1)
		go func() {
			defer poll.Done()
			tick := time.NewTicker(20 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if st, err := getStats(client, ts.URL); err == nil && st.QueueDepth > maxDepth {
						maxDepth = st.QueueDepth
					}
				}
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(time.Duration(spec.Seconds * float64(time.Second)))
	minJobs := serveWarmJobs + 2*serveClients
	timed := loop(func(i int) bool { return i >= minJobs && !time.Now().Before(deadline) })
	res.WallMs = msSince(start)
	close(stopPoll)
	poll.Wait()
	res.PeakRSSMB = peakRSSMB()

	// Correctness: every job done; equal configurations byte-identical;
	// every receiver column live.
	byKey := map[string]string{}
	live := true
	for _, s := range append(append([]jobSample(nil), warm...), timed...) {
		if s.err != nil {
			res.Problems = append(res.Problems, s.err.Error())
			if s.idx >= serveWarmJobs {
				res.Failed++
			}
			continue
		}
		res.JobDigests[s.idx] = s.digest
		if prev, ok := byKey[s.key]; ok && prev != s.digest {
			res.Problems = append(res.Problems, fmt.Sprintf("job %d: rows differ from an earlier job of configuration %s", s.idx, s.key))
			res.Failed++
		}
		byKey[s.key] = s.digest
		if !tracesLive(csvColumns(s.rows)) {
			live = false
		}
	}
	res.Live = live
	var warmDigests [][]byte
	for _, s := range warm {
		warmDigests = append(warmDigests, []byte(s.digest))
	}
	res.Digest = digestBytes(warmDigests...)
	for _, s := range timed {
		res.OpMs = append(res.OpMs, s.totalMs)
	}

	st, err := getStats(client, ts.URL)
	if err != nil {
		return nil, err
	}
	if n := st.Cache.Hits + st.Cache.Misses; n > 0 {
		res.CacheHitRate = float64(st.Cache.Hits) / float64(n)
	}

	if tr != nil {
		var sub, first, stream []float64
		for _, s := range timed {
			if s.err != nil {
				continue
			}
			at := func(ms float64) time.Time { return s.start.Add(time.Duration(ms * 1e6)) }
			id := tr.add("job", -1, s.start, at(s.totalMs))
			tr.add("submit", id, s.start, at(s.submitMs))
			tr.add("first_row", id, at(s.submitMs), at(s.firstMs))
			tr.add("stream", id, at(s.firstMs), at(s.totalMs))
			sub = append(sub, s.submitMs)
			first = append(first, s.firstMs)
			stream = append(stream, s.totalMs-s.firstMs)
		}
		ls := layerSet{}
		ls.put("submit_ms", median(sub))
		ls.put("first_row_ms", median(first))
		ls.put("stream_ms", median(stream))
		ls.put("cache_hit_rate", res.CacheHitRate)
		ls.put("queue_depth_max", float64(maxDepth))
		res.Layer = ls
	}
	return res, nil
}
