package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler polls a process's resident set size and keeps the peak.
// Polling, rather than the kernel's lifetime high-water mark, confines
// the peak to the measured phase.
type rssSampler struct {
	path string
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak int64
	err  error
}

const rssEvery = 5 * time.Millisecond

func startRSS(pid int) *rssSampler {
	s := &rssSampler{path: fmt.Sprintf("/proc/%d/status", pid), stop: make(chan struct{})}
	s.sample()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	kb, err := readRSS(s.path)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return
	}
	s.peak = max(s.peak, kb)
}

// finish stops the sampler and returns the peak in MB.
func (s *rssSampler) finish() (float64, error) {
	s.sample()
	close(s.stop)
	s.done.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.peak == 0 {
		return 0, fmt.Errorf("no RSS sample from %s: %v", s.path, s.err)
	}
	return float64(s.peak) / 1024, nil
}

func readRSS(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	i := bytes.Index(b, []byte("VmRSS:"))
	if i < 0 {
		return 0, fmt.Errorf("%s has no VmRSS", path)
	}
	f := bytes.Fields(b[i+len("VmRSS:"):])
	if len(f) == 0 {
		return 0, fmt.Errorf("%s: empty VmRSS", path)
	}
	return strconv.ParseInt(string(f[0]), 10, 64)
}

// stealSeconds reads the time the hypervisor ran something else while
// this machine's CPUs wanted to run (the steal column of /proc/stat),
// summed over CPUs. A run that lost much of it was measured on a busy
// host.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(ticks) / 100 // USER_HZ
}
