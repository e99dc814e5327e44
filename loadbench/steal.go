package main

import (
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on a shared VM. When the host is busy, the
// hypervisor takes CPU time from the VM — steal, in /proc/stat — in
// bursts that last from milliseconds to minutes, and a call in flight
// during a burst waits for it. loadbench samples steal through the loop
// and reports the throughput and median latency of the (at least) half
// of the loop's windows in which the least was stolen, so a burst moves
// the result only when it covers most of the run. The program under
// test cannot move steal except by using less CPU.

// stealTicks reads the CPU time the hypervisor has taken from this VM,
// summed over its CPUs, in clock ticks: the steal field of /proc/stat's
// cpu line. It reads 0 where the kernel reports none.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64) // an unparsable field reads as no steal
	return v
}

// stealEvery is the steal sampling period: a few clock ticks, and short
// beside a refresh or fleet cycle.
const stealEvery = 20 * time.Millisecond

// calmShare is the share of a loop's windows, those with the least
// steal, that ops_per_s and submit_p50_ms are taken over at the least.
const calmShare = 0.5

// stealLog is the steal counter sampled through a loop.
type stealLog struct {
	at    []time.Duration // since the loop started
	ticks []uint64
}

// recordSteal samples steal every stealEvery from start until stop is
// called; stop waits for the sampler to exit and returns the samples.
func recordSteal(start time.Time) (stop func() stealLog) {
	var l stealLog
	done, exited := make(chan struct{}), make(chan struct{})
	sample := func() {
		l.at = append(l.at, time.Since(start))
		l.ticks = append(l.ticks, stealTicks())
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			sample()
			select {
			case <-done:
				sample()
				return
			case <-t.C:
			}
		}
	}()
	return func() stealLog {
		close(done)
		<-exited
		return l
	}
}

// ticksAt is the steal counter's last sample at or before t.
func (l stealLog) ticksAt(t time.Duration) uint64 {
	i, found := slices.BinarySearch(l.at, t)
	if !found {
		i--
	}
	return l.ticks[max(i, 0)]
}

// share is the fraction of the VM's CPU time stolen between a and b.
func (l stealLog) share(a, b time.Duration) float64 {
	if len(l.ticks) == 0 || b <= a {
		return 0
	}
	stolen := float64(l.ticksAt(b)-l.ticksAt(a)) * clockTick.Seconds()
	return stolen / ((b - a).Seconds() * float64(runtime.NumCPU()))
}

// total is the fraction of the VM's CPU time stolen over the whole log.
func (l stealLog) total() float64 {
	if len(l.ticks) < 2 {
		return 0
	}
	return l.share(l.at[0], l.at[len(l.at)-1])
}

// calmWindows splits calls — the loop's successful calls in completion
// order — into consecutive windows of n, and keeps every window whose
// steal share is at most the calmShare-quantile of all windows' shares:
// the calmest calmShare of them, or more where shares tie (a loop with
// no steal keeps every window). It returns the kept windows' calls and
// calls per second, and every window's calls per second. With fewer
// than two windows it keeps every call.
func calmWindows(calls []sample, n int, steal stealLog) (kept []sample, rates, all []float64) {
	type win struct {
		from, to int // calls[from:to]
		steal    float64
		rate     float64
	}
	var ws []win
	var shares []float64
	var prev time.Duration
	for i := n; i <= len(calls); i += n {
		end := calls[i-1].end
		w := win{from: i - n, to: i, steal: steal.share(prev, end), rate: float64(n) / (end - prev).Seconds()}
		ws = append(ws, w)
		shares = append(shares, w.steal)
		all = append(all, w.rate)
		prev = end
	}
	if len(ws) < 2 {
		rate := []float64{float64(len(calls)) / calls[len(calls)-1].end.Seconds()}
		return calls, rate, rate
	}
	limit := quantile(shares, calmShare)
	for _, w := range ws {
		if w.steal <= limit {
			kept = append(kept, calls[w.from:w.to]...)
			rates = append(rates, w.rate)
		}
	}
	return kept, rates, all
}

// latencies is the latencies of the calls of one kind.
func latencies(calls []sample, kind opKind) []float64 {
	var out []float64
	for _, c := range calls {
		if c.kind == kind {
			out = append(out, c.ms)
		}
	}
	return out
}
