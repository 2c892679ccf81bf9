package main

import (
	"math/rand"
	"sync"
	"time"
)

// Host-speed calibration. The sandbox this benchmark is tuned on shares
// physical cores with other tenants: each vCPU flips between plateaus up
// to 1.8x apart that last seconds to minutes, so raw wall-clock medians of
// identical runs differ by 30-60% and no run length inside the time cap
// averages that out. Every timed region is therefore bracketed by a fixed
// reference computation — none of the repository's code — and its time is
// scaled by how fast the host ran that reference just then. What is
// reported is the time the region would have taken on a host that runs
// the reference in nominalCalibMs.

// nominalCalibMs is what calibrate takes, undisturbed, on the 2-vCPU box
// the workloads were sized on; there the scale factor is 1 and every
// time reads as plain wall time.
const nominalCalibMs = 15.0

const (
	calibThreads  = 2        // the sandbox's vCPU count
	calibALUWords = 32 << 10 // 256 KiB per thread: cache-resident
	calibChaseLen = 2 << 20  // 8 MiB per thread: cache-missing
)

var (
	calibOnce  sync.Once
	calibALU   [calibThreads][]uint64
	calibChase [calibThreads][]uint32
	calibSink  [calibThreads]uint64
)

func calibInit() {
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < calibThreads; g++ {
		calibALU[g] = make([]uint64, calibALUWords)
		// Sattolo's shuffle: one cycle through every slot.
		next := make([]uint32, calibChaseLen)
		for i := range next {
			next[i] = uint32(i)
		}
		for i := calibChaseLen - 1; i > 0; i-- {
			j := rng.Intn(i)
			next[i], next[j] = next[j], next[i]
		}
		calibChase[g] = next
	}
}

// calibrate runs the reference computation — an arithmetic pass over a
// cache-resident array, then a dependent pointer chase through an 8 MiB
// cycle — on calibThreads goroutines at once and returns the mean of their
// times in ms: the vCPUs are disturbed independently, and a workload's
// goroutines land on either. The live workloads are bound by cache misses
// more than by arithmetic, so the chase carries most of the weight.
func calibrate() float64 {
	calibOnce.Do(calibInit)
	var took [calibThreads]time.Duration
	var wg sync.WaitGroup
	for g := 0; g < calibThreads; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			buf := calibALU[g]
			var acc uint64
			for r := 0; r < 120; r++ {
				for i := range buf {
					acc = acc*6364136223846793005 + buf[i] + uint64(i)
					buf[i] = acc >> 7
				}
			}
			next := calibChase[g]
			p := uint32(acc) % calibChaseLen
			for i := 0; i < 100_000; i++ {
				p = next[p]
			}
			calibSink[g] = acc + uint64(p)
			took[g] = time.Since(t0)
		}(g)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return float64(sum.Nanoseconds()) / calibThreads / 1e6
}

// hostSeries scales a sequence of timed regions to the nominal host. A
// calibration is taken before the first region and after every region.
// One calibration is itself noisy (+-10%) where host plateaus last
// seconds, so a region is scaled by the median of the four calibrations
// from one region before it to one region after it.
type hostSeries struct {
	calib []float64 // calib[i] precedes region i; the last follows the last region
}

// mark takes a calibration; call it before the first region and after
// each region.
func (h *hostSeries) mark() {
	// The lower of two: work left over from the region just ended (a
	// cluster tearing down, the collector sweeping) inflates one sample,
	// a host plateau inflates both.
	c := calibrate()
	if c2 := calibrate(); c2 < c {
		c = c2
	}
	h.calib = append(h.calib, c)
}

// factor returns what to multiply region i's measured time by.
func (h *hostSeries) factor(i int) float64 {
	lo, hi := i-1, i+3
	if lo < 0 {
		lo = 0
	}
	if hi > len(h.calib) {
		hi = len(h.calib)
	}
	return nominalCalibMs / median(h.calib[lo:hi])
}
