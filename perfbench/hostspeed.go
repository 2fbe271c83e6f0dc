package main

import (
	"fmt"
	"sort"
	"time"
)

// The reference host is a shared 2-vCPU VM whose speed drifts by up to 2×
// within minutes as other tenants load the machine, and the drift moves
// every raw time of a run alike: the same code's raw solve times spread
// across runs by more than any useful regression bound. A run therefore
// times a fixed reference kernel between its operations and reports every
// end-to-end time at the reference host speed: each timed operation is
// divided by the slowdown measured around it, the median of the
// localSamples kernel times nearest to it over refKernelMS.
//
// The kernel is a small best-first search written in this package, so no
// change to the program can move it. Like the program's search it
// allocates a node per generated state, deduplicates states in a map and
// keeps a binary heap of pointers, so the garbage collector works on the
// second core while it runs, as it does during a solve. A kernel that
// allocated nothing followed the host's drift only half as much as the
// search did.

// refKernelMS is the reference kernel's median time, in milliseconds, on
// the reference host when it is quiet. It fixes the scale of the reported
// times only; a run's spread does not depend on it.
const refKernelMS = 8.0

// kernelExpansions is the reference kernel's size: about refKernelMS on
// the reference host, short enough to run between any two operations.
const kernelExpansions = 10000

// kernelNode is one state of the reference kernel's search.
type kernelNode struct {
	key    uint64
	g, f   int32
	parent *kernelNode
}

// refKernel runs the reference kernel once: a best-first search over a
// fixed synthetic state space of 2^18 states with four children per state.
// It returns the number of states it reached, the same on every call.
func refKernel() int {
	visited := make(map[uint64]*kernelNode)
	var open []*kernelNode
	push := func(c *kernelNode) {
		open = append(open, c)
		for i := len(open) - 1; i > 0; {
			p := (i - 1) / 2
			if open[p].f <= open[i].f {
				break
			}
			open[p], open[i] = open[i], open[p]
			i = p
		}
	}
	pop := func() *kernelNode {
		top := open[0]
		last := len(open) - 1
		open[0] = open[last]
		open = open[:last]
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(open) {
				break
			}
			if r := l + 1; r < len(open) && open[r].f < open[l].f {
				l = r
			}
			if open[i].f <= open[l].f {
				break
			}
			open[i], open[l] = open[l], open[i]
			i = l
		}
		return top
	}
	push(&kernelNode{key: 1})
	for e := 0; e < kernelExpansions && len(open) > 0; e++ {
		cur := pop()
		for c := uint64(0); c < 4; c++ {
			k := (cur.key*0x9E3779B97F4A7C15 + c*0xBF58476D1CE4E5B9) >> 1
			k %= 1 << 18
			if _, dup := visited[k]; dup {
				continue
			}
			child := &kernelNode{key: k, g: cur.g + int32(k&7), parent: cur}
			child.f = child.g + int32(k>>3&15)
			visited[k] = child
			push(child)
		}
	}
	return len(visited)
}

// localSamples is how many kernel times, nearest in time to an
// operation, give the slowdown that operation is divided by.
const localSamples = 10

// hostSpeed collects one run's reference-kernel times, in time order.
type hostSpeed struct {
	at      []time.Time // when each kernel run started
	samples []float64   // kernel wall times, ms
	reached int         // the kernel's result, identical on every call
	broken  bool        // a call reached a different number of states
}

// sample times one kernel run.
func (h *hostSpeed) sample() {
	t := time.Now()
	n := refKernel()
	h.at = append(h.at, t)
	h.samples = append(h.samples, ms(time.Since(t)))
	if h.reached == 0 {
		h.reached = n
	}
	h.broken = h.broken || n != h.reached
}

// slowdown is how much slower than the reference the whole run's host
// was: the median kernel time over refKernelMS (1 before any sample).
func (h *hostSpeed) slowdown() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return median(h.samples) / refKernelMS
}

// slowdownAt is the host's slowdown around t: the median of the
// localSamples kernel times nearest to t over refKernelMS.
func (h *hostSpeed) slowdownAt(t time.Time) float64 {
	n := len(h.samples)
	if n == 0 {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return !h.at[i].Before(t) })
	lo := min(max(i-localSamples/2, 0), max(n-localSamples, 0))
	return median(h.samples[lo:min(lo+localSamples, n)]) / refKernelMS
}

// scaled is d, which started at t, in milliseconds at the reference host
// speed.
func (h *hostSpeed) scaled(t time.Time, d time.Duration) float64 {
	return ms(d) / h.slowdownAt(t)
}

// scaledMedian is the median of ops in milliseconds at the reference host
// speed.
func scaledMedian(h *hostSpeed, ops []timed) float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = h.scaled(op.at, op.d)
	}
	return median(xs)
}

// check fails the run when the kernel did not repeat itself exactly, and
// prints the run's host speed.
func (h *hostSpeed) check(o options, r *report) {
	if h.broken {
		r.fail("reference kernel results differ between calls")
	}
	fmt.Fprintf(o.out, "host kernel_ms=%.4f slowdown=%.4f samples=%d\n", median(h.samples), h.slowdown(), len(h.samples))
}

// layers reports the host's speed as per-layer figures, so a traced run's
// raw times can be read against it.
func (h *hostSpeed) layers(r *report) {
	r.add("host.kernel_ms", median(h.samples), "ms", len(h.samples))
	r.add("host.slowdown", h.slowdown(), "ratio", len(h.samples))
}
