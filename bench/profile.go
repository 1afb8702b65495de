package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// profileHz is the CPU-profile sampling rate. The default 100 Hz gives a
// three-second single-threaded pass ~300 samples, which puts ±3 points on
// a 28 % share; 250 Hz is what a CONFIG_HZ=250 kernel's CPU timers deliver
// at most, and brings that under ±2.
const profileHz = 250

// startProfile begins a CPU profile into path. pprof.StartCPUProfile pins
// the rate to 100 Hz, so the rate is set first; the runtime then refuses
// pprof's own call (and says so once on stderr) and keeps ours.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

const internalPrefix = "github.com/payloadpark/payloadpark/internal/"

// Function-name prefixes that mark a sample as the runtime's own work.
var (
	syscallFrames = []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall.", "internal/poll.", "runtime.netpoll", "runtime.entersyscall", "runtime.exitsyscall"}
	gcFrames      = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject", "runtime.scanblock", "runtime.greyobject", "runtime.markroot", "runtime.sweepone", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.wbBufFlush", "runtime.(*gcBits)", "runtime.(*scavengerState)"}
	schedFrames   = []string{"runtime.futex", "runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup", "runtime.notetsleep", "runtime.usleep", "runtime.osyield", "runtime.runqgrab", "runtime.runqsteal", "runtime.stealWork", "runtime.execute", "runtime.gosched", "runtime.goschedImpl", "runtime.mstart", "runtime.sysmon", "runtime.checkTimers", "runtime.(*timers)", "runtime.(*timer)", "runtime.resetspinning", "runtime.pidleget", "runtime.pidleput", "runtime.injectglist", "runtime.semasleep", "runtime.semawakeup", "runtime.mPark", "runtime.gcstopm", "runtime.casgstatus", "runtime.globrunqget"}
)

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// runtimeBucket names the runtime bucket fn belongs to, "" if none.
func runtimeBucket(fn string) string {
	switch {
	case hasAnyPrefix(fn, syscallFrames):
		return "syscall"
	case hasAnyPrefix(fn, gcFrames):
		return "gc"
	case hasAnyPrefix(fn, schedFrames):
		return "sched"
	}
	return ""
}

// layerOf returns the program package a function belongs to ("" when it
// is not under internal/).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// bucketOf charges one sampled stack (leaf first). A collector, scheduler
// or syscall leaf wins; otherwise the innermost frame inside the program
// takes the sample, so memmove and duffcopy land on the layer that called
// them; a stack that never enters the program is the runtime's if any of
// its frames says so, and "other" if not.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if b := runtimeBucket(stack[0]); b != "" {
		return b
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			for _, b := range profBuckets {
				if b == l {
					return l
				}
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if b := runtimeBucket(fn); b != "" {
			return b
		}
	}
	return "other"
}

// attribute runs `go tool pprof -traces` over a CPU profile and returns
// each bucket's share of the samples, plus the sample count.
func attribute(profPath string) (shares map[string]float64, samples int, err error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	counts := map[string]int{}
	var stack []string
	var weight int
	flush := func() {
		if weight > 0 {
			counts[bucketOf(stack)] += weight
			samples += weight
		}
		stack, weight = stack[:0], 0
	}
	inTraces := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && weight == 0 {
			// First line of a trace: "<count>   <leaf function>".
			n, err := strconv.Atoi(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, 0, fmt.Errorf("go tool pprof -traces: unexpected line %q", line)
			}
			weight = n
			fields = fields[1:]
		}
		stack = append(stack, strings.Join(fields, " "))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	shares = make(map[string]float64, len(profBuckets))
	for _, b := range profBuckets {
		if samples > 0 {
			shares[b] = float64(counts[b]) / float64(samples)
		}
	}
	return shares, samples, nil
}
