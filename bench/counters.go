package main

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// series is one counter reading in the shape both telemetry sources
// share: an in-process metrics.Snapshot delta and a daemon's scraped
// Prometheus page.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// fromSnapshot flattens a registry snapshot (or delta).
func fromSnapshot(s *metrics.Snapshot) []series {
	var out []series
	for _, sm := range s.Samples() {
		ls := make(map[string]string, len(sm.Labels))
		for _, l := range sm.Labels {
			ls[l.Key] = l.Value
		}
		out = append(out, series{name: sm.Name, labels: ls, value: float64(sm.Value)})
	}
	return out
}

// parsePrometheus reads the sample lines of a text-format 0.0.4 page.
// Histogram bucket/sum/count lines come through under their suffixed
// names, which is all the benchmark needs.
func parsePrometheus(page string) []series {
	var out []series
	for _, line := range strings.Split(page, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		id := line[:sp]
		s := series{name: id, labels: map[string]string{}, value: v}
		if open := strings.IndexByte(id, '{'); open >= 0 && strings.HasSuffix(id, "}") {
			s.name = id[:open]
			for _, pair := range strings.Split(id[open+1:len(id)-1], ",") {
				k, val, ok := strings.Cut(pair, "=")
				if ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// total sums every series called name whose labels satisfy keep (nil
// keeps all).
func total(ss []series, name string, keep func(labels map[string]string) bool) float64 {
	var sum float64
	for _, s := range ss {
		if s.name == name && (keep == nil || keep(s.labels)) {
			sum += s.value
		}
	}
	return sum
}

// sub returns after-before per series; series absent from before count
// from zero.
func sub(after, before []series) []series {
	key := func(s series) string {
		pairs := make([]string, 0, len(s.labels))
		for k, v := range s.labels {
			pairs = append(pairs, k+"="+v)
		}
		sort.Strings(pairs)
		return s.name + "|" + strings.Join(pairs, "|")
	}
	prev := make(map[string]float64, len(before))
	for _, s := range before {
		prev[key(s)] = s.value
	}
	out := make([]series, 0, len(after))
	for _, s := range after {
		s.value -= prev[key(s)]
		out = append(out, s)
	}
	return out
}

// upstreamSegment says whether a netsim segment label names a
// back-to-origin hop (everything that is not a client-facing segment).
func upstreamSegment(labels map[string]string) bool {
	return !strings.Contains(labels["segment"], "client")
}

// inSitu derives the ratios that are measured where the work happens —
// cache effectiveness and the edge's upstream economy — from one run's
// counter delta. A ratio whose denominator is zero reads 0.
func inSitu(ss []series) map[string]float64 {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits := total(ss, "cache_hits_total", nil)
	misses := total(ss, "cache_misses_total", nil)
	reqs := total(ss, "cdn_requests_total", nil)
	return map[string]float64{
		"cache.hit_ratio":              ratio(hits, hits+misses),
		"cdn.upstream_fetches_per_req": ratio(total(ss, "cdn_upstream_fetches_total", nil), reqs),
		"cdn.upstream_dials_per_req":   ratio(total(ss, "netsim_conns_opened_total", upstreamSegment), reqs),
	}
}
