package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the layers the traced phase's CPU profile is split into:
// the memfwd packages (apps/* as one), the HTTP boundary, and the Go
// runtime.
var layers = []string{
	"exp", "sim", "cpu", "cache", "mem", "core", "opt", "sched", "tier", "oracle", "apps", "obs",
	"serve", "http", "rt.gc", "rt.sched", "rt.other",
}

// layerSelfTimes reads a CPU profile with "go tool pprof -traces" and
// returns each layer's CPU seconds. Each sample goes to exactly one
// layer, by the first rule that matches its stack:
//
//  1. the innermost frame of a memfwd package that names a layer
//     (memfwd and internal/figures are exp, internal/apps/* is apps);
//  2. a net, net/http or encoding/json frame: http;
//  3. a runtime frame of the garbage collector or allocator: rt.gc;
//  4. a runtime frame parking, scheduling or waking goroutines, which
//     the profiler records on the scheduler's stack without the
//     goroutine's own frames: rt.sched;
//  5. anything else: rt.other.
func layerSelfTimes(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	self := map[string]float64{}
	var (
		stack []string
		value time.Duration
	)
	flush := func() {
		if len(stack) > 0 {
			self[classify(stack)] += value.Seconds()
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		if !inTraces || strings.TrimSpace(line) == "" {
			continue
		}
		fn := strings.TrimSpace(line)
		if len(stack) == 0 {
			// The first line of a trace carries its sample value.
			v, rest, ok := strings.Cut(fn, " ")
			if !ok {
				return nil, fmt.Errorf("pprof trace line %q has no function", line)
			}
			if value, err = time.ParseDuration(v); err != nil {
				return nil, fmt.Errorf("pprof trace value %q: %w", v, err)
			}
			fn = strings.TrimSpace(rest)
		}
		stack = append(stack, strings.TrimSuffix(fn, " (inline)"))
	}
	flush()
	return self, sc.Err()
}

// classify assigns one sample's stack, innermost frame first, to a
// layer (see layerSelfTimes).
func classify(stack []string) string {
	for _, fn := range stack {
		if l := memfwdLayer(pkgOf(fn)); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if p := pkgOf(fn); p == "net" || strings.HasPrefix(p, "net/") || p == "encoding/json" {
			return "http"
		}
	}
	for _, rule := range runtimeRules {
		for _, fn := range stack {
			for _, prefix := range rule.frames {
				if strings.HasPrefix(fn, prefix) {
					return rule.layer
				}
			}
		}
	}
	return "rt.other"
}

// runtimeRules are rules 3 and 4: runtime function prefixes of the
// garbage collector and allocator, then of the goroutine scheduler.
var runtimeRules = []struct {
	layer  string
	frames []string
}{
	{"rt.gc", []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
		"runtime.scanobject", "runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
	}},
	{"rt.sched", []string{
		"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm",
		"runtime.mstart", "runtime.goexit0", "runtime.gosched", "runtime.netpoll", "runtime.futex",
	}},
}

// memfwdLayer maps a memfwd package to its layer, or "" for a package
// outside the module or one that names no layer.
func memfwdLayer(pkg string) string {
	switch {
	case pkg == "memfwd" || pkg == "memfwd/internal/figures":
		return "exp"
	case strings.HasPrefix(pkg, "memfwd/internal/apps/"):
		return "apps"
	}
	name, ok := strings.CutPrefix(pkg, "memfwd/internal/")
	if !ok {
		return ""
	}
	for _, l := range layers {
		if l == name {
			return l
		}
	}
	return ""
}

// pkgOf returns the import path of a pprof function name such as
// "memfwd/internal/cache.(*Cache).Access" or "memfwd.RunOne".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold dots and slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}
