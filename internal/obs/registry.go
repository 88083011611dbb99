package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one metric dimension, rendered as key="value". Labels are fixed
// at registration — series are fully pre-registered, so the request path
// never formats or hashes a label.
type Label struct {
	Key, Value string
}

// LabeledValue is one sample of a dynamic gauge family (GaugeSet): its
// label set and current value, produced at scrape time.
type LabeledValue struct {
	Labels []Label
	Value  float64
}

// collector kinds. Func-backed collectors read their value at scrape time
// (for state that already has an authoritative owner, like cache Stats),
// the rest are written on the hot path.
type seriesKind uint8

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
	kindGaugeSet
)

// promType maps a collector kind to its exposition TYPE.
func (k seriesKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one registered (name, labels) sample stream.
type series struct {
	labels string // rendered, brace-free: `k1="v1",k2="v2"`; "" when unlabeled
	kind   seriesKind
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() uint64
	gf     func() float64
	gs     func() []LabeledValue
}

// family is every series sharing one metric name.
type family struct {
	name, help string
	kind       seriesKind
	bounds     []float64 // histogram families: shared bucket layout
	byLabels   map[string]*series
}

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. Registration is idempotent: registering an
// existing (name, labels) pair returns the existing collector (func-backed
// collectors swap in the new callback — last registration wins, which is
// what reload/re-setup flows want). Mismatched kinds or histogram bounds
// on one name panic: that is a wiring bug, not runtime input.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// std is the process-wide default registry: library packages (mltree,
// forecast, registry, parallel, the caches) register here at init, and
// hotserve /metrics plus the CLIs' -metrics dump render it.
var std = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// renderLabels renders a label set sorted by key, so a (name, labels)
// identity is order-independent and scrapes are byte-stable.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// SeriesName renders the canonical series identity `name{labels}` exactly
// as WriteText emits it — scrape consumers (bench/hotperf) construct
// lookup keys with this.
func SeriesName(name string, labels ...Label) string {
	ls := renderLabels(labels)
	if ls == "" {
		return name
	}
	return name + "{" + ls + "}"
}

// register resolves or creates the series for (name, labels), enforcing
// kind agreement. make builds a fresh series body on first registration;
// replace (optional) updates an existing one (func swap).
func (r *Registry) register(name, help string, kind seriesKind, labels []Label,
	bounds []float64, make func() *series, replace func(*series)) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, bounds: bounds,
			byLabels: map[string]*series{}}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s, was %s",
			name, kind.promType(), fam.kind.promType()))
	}
	if kind == kindHistogram && !boundsEqual(fam.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
	}
	if s, ok := fam.byLabels[key]; ok {
		if replace != nil {
			replace(s)
		}
		return s
	}
	s := make()
	s.labels = key
	s.kind = kind
	fam.byLabels[key] = s
	return s
}

// Counter registers (or returns) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, kindCounter, labels, nil,
		func() *series { return &series{c: &Counter{}} }, nil)
	return s.c
}

// Gauge registers (or returns) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, kindGauge, labels, nil,
		func() *series { return &series{g: &Gauge{}} }, nil)
	return s.g
}

// Histogram registers (or returns) the histogram series name{labels} over
// the given bucket bounds. Every series of one family must agree on the
// bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, kindHistogram, labels, bounds,
		func() *series { return &series{h: NewHistogram(bounds)} }, nil)
	return s.h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — for monotonic state that already has an authoritative
// owner (cache hit totals). Re-registering swaps in the new fn. fn must
// not call back into this registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, kindCounterFunc, labels, nil,
		func() *series { return &series{cf: fn} }, func(s *series) { s.cf = fn })
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time. Re-registering swaps in the new fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGaugeFunc, labels, nil,
		func() *series { return &series{gf: fn} }, func(s *series) { s.gf = fn })
}

// GaugeSet registers a dynamic gauge family: fn returns the family's full
// sample set at scrape time, labels and all. For inventories whose label
// sets change at runtime (the served-artifact set across hot reloads) —
// the scrape pays the allocation, the serving path pays nothing.
// Re-registering swaps in the new fn.
func (r *Registry) GaugeSet(name, help string, fn func() []LabeledValue) {
	r.register(name, help, kindGaugeSet, nil, nil,
		func() *series { return &series{gs: fn} }, func(s *series) { s.gs = fn })
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSample emits one `name{labels} value` line.
func writeSample(w io.Writer, name, labels string, v float64) error {
	var err error
	if labels == "" {
		_, err = fmt.Fprintf(w, "%s %s\n", name, formatValue(v))
	} else {
		_, err = fmt.Fprintf(w, "%s{%s} %s\n", name, labels, formatValue(v))
	}
	return err
}

// joinLabels appends extra to a rendered label block.
func joinLabels(base, extra string) string {
	if base == "" {
		return extra
	}
	return base + "," + extra
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series within a family sorted
// by label block, histograms as cumulative `_bucket{le=...}` plus `_sum`
// and `_count`. The scrape path may allocate — only the record path is
// bound by the zero-allocation rule.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := r.families[name]
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, fam.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam.kind.promType()); err != nil {
			return err
		}
		keys := make([]string, 0, len(fam.byLabels))
		for k := range fam.byLabels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := writeSeries(w, fam, fam.byLabels[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series' samples.
func writeSeries(w io.Writer, fam *family, s *series) error {
	switch s.kind {
	case kindCounter:
		return writeSample(w, fam.name, s.labels, float64(s.c.Value()))
	case kindGauge:
		return writeSample(w, fam.name, s.labels, float64(s.g.Value()))
	case kindCounterFunc:
		return writeSample(w, fam.name, s.labels, float64(s.cf()))
	case kindGaugeFunc:
		return writeSample(w, fam.name, s.labels, s.gf())
	case kindGaugeSet:
		samples := s.gs()
		sort.Slice(samples, func(i, j int) bool {
			return renderLabels(samples[i].Labels) < renderLabels(samples[j].Labels)
		})
		for _, lv := range samples {
			if err := writeSample(w, fam.name, renderLabels(lv.Labels), lv.Value); err != nil {
				return err
			}
		}
		return nil
	case kindHistogram:
		snap := s.h.Snapshot()
		var cum uint64
		for i, c := range snap.Counts {
			cum += c
			le := "+Inf"
			if i < len(snap.Bounds) {
				le = formatValue(snap.Bounds[i])
			}
			lb := joinLabels(s.labels, `le="`+le+`"`)
			if err := writeSample(w, fam.name+"_bucket", lb, float64(cum)); err != nil {
				return err
			}
		}
		if err := writeSample(w, fam.name+"_sum", s.labels, snap.Sum); err != nil {
			return err
		}
		return writeSample(w, fam.name+"_count", s.labels, float64(snap.Count))
	}
	return nil
}

// Handler returns an http.Handler serving the registries' text exposition
// concatenated in argument order — a /metrics endpoint. Families must not
// repeat across the registries (hotserve keeps server-scoped series in its
// own registry precisely so they cannot collide with Default's).
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, reg := range regs {
			if err := reg.WriteText(w); err != nil {
				return
			}
		}
	})
}
