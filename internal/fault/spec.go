package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec builds an injector from a compact textual spec, the format
// of cosparsed's -fault-spec flag:
//
//	point:key=value[,key=value...][;point:...]
//
// Keys per point:
//
//	err=RATE        probability of an injected error
//	panic=RATE      probability of an injected panic
//	lat=RATE        probability of injected latency
//	latency=DUR     latency duration (Go syntax, e.g. 5ms)
//	max=N           cap on injected errors+panics (0 = unlimited)
//
// Example:
//
//	scheduler.job_run:err=0.1,panic=0.01;runtime.iteration:lat=0.5,latency=2ms
//
// An empty spec returns a disarmed injector. Unknown points or keys are
// errors, so a typo'd flag fails fast instead of silently not injecting.
func ParseSpec(seed uint64, spec string) (*Injector, error) {
	in := New(seed)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return in, nil
	}
	known := make(map[Point]bool)
	for _, p := range Points() {
		known[p] = true
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		point, args, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("fault: spec entry %q: want point:key=value,...", entry)
		}
		p := Point(strings.TrimSpace(point))
		if !known[p] {
			return nil, fmt.Errorf("fault: unknown point %q (known: %v)", p, Points())
		}
		var r Rule
		for _, kv := range strings.Split(args, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: spec entry %q: bad pair %q", entry, kv)
			}
			var err error
			switch key {
			case "err":
				r.ErrRate, err = parseRate(val)
			case "panic":
				r.PanicRate, err = parseRate(val)
			case "lat":
				r.LatencyRate, err = parseRate(val)
			case "latency":
				r.Latency, err = time.ParseDuration(val)
			case "max":
				r.MaxFaults, err = strconv.ParseInt(val, 10, 64)
			default:
				return nil, fmt.Errorf("fault: spec entry %q: unknown key %q", entry, key)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: spec entry %q: %s=%s: %v", entry, key, val, err)
			}
		}
		if r.LatencyRate > 0 && r.Latency <= 0 {
			return nil, fmt.Errorf("fault: spec entry %q: lat rate set but no latency duration", entry)
		}
		in.Arm(p, r)
	}
	return in, nil
}

func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if v < 0 || v > 1 {
		return 0, fmt.Errorf("rate %g outside [0, 1]", v)
	}
	return v, nil
}
