package obs

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Scrape is a parsed /metrics payload: every sample line keyed by its
// canonical series identity `name{labels}` (labels sorted by key), exactly
// as SeriesName renders it. Comment and TYPE/HELP lines are dropped —
// consumers (hotperf's counter audit) only need the samples.
type Scrape map[string]float64

// ParseText parses a Prometheus text exposition payload. Lines that are
// blank or comments are skipped; a malformed sample line is an error, not
// a skip — a server emitting garbage should fail the cross-check loudly.
func ParseText(text string) (Scrape, error) {
	out := Scrape{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		out[key] = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSample splits one `name{labels} value` line into a canonical key
// (labels re-sorted by key) and its value.
func parseSample(line string) (string, float64, error) {
	// The value is the last space-separated field; the series identity is
	// everything before it. Label values may themselves contain spaces, so
	// split from the right.
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, fmt.Errorf("obs: malformed metric line %q", line)
	}
	ident := strings.TrimSpace(line[:i])
	val, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64)
	if err != nil {
		return "", 0, fmt.Errorf("obs: bad value in metric line %q: %v", line, err)
	}
	open := strings.IndexByte(ident, '{')
	if open < 0 {
		return ident, val, nil
	}
	if !strings.HasSuffix(ident, "}") {
		return "", 0, fmt.Errorf("obs: malformed series %q", ident)
	}
	name := ident[:open]
	labels, err := parseLabelBlock(ident[open+1 : len(ident)-1])
	if err != nil {
		return "", 0, fmt.Errorf("obs: malformed series %q: %v", ident, err)
	}
	return SeriesName(name, labels...), val, nil
}

// parseLabelBlock parses `k1="v1",k2="v2"` honoring escapes in values.
func parseLabelBlock(s string) ([]Label, error) {
	var labels []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("missing quoted value near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		rest := s[eq+2:]
		var b strings.Builder
		closed := -1
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(rest[i+1])
				}
				i++
				continue
			}
			if c == '"' {
				closed = i
				break
			}
			b.WriteByte(c)
		}
		if closed < 0 {
			return nil, fmt.Errorf("unterminated value for label %q", key)
		}
		labels = append(labels, Label{Key: key, Value: b.String()})
		s = rest[closed+1:]
		s = strings.TrimPrefix(strings.TrimSpace(s), ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// Value returns the sample for the series and whether it was present.
func (s Scrape) Value(name string, labels ...Label) (float64, bool) {
	v, ok := s[SeriesName(name, labels...)]
	return v, ok
}

// Counter returns a counter sample as an integer (0 when absent).
func (s Scrape) Counter(name string, labels ...Label) uint64 {
	v, _ := s.Value(name, labels...)
	return uint64(v)
}

// Histogram reassembles a HistSnapshot from a scraped histogram family's
// `_bucket`/`_sum` series (the extra labels select one series of the
// family). Scraped buckets are cumulative; the snapshot stores per-bucket
// counts, so consecutive scrapes can be Sub'd just like local snapshots. Returns false when the family is absent.
func (s Scrape) Histogram(name string, labels ...Label) (HistSnapshot, bool) {
	base := renderLabels(labels)
	prefix := name + "_bucket{"
	type bucket struct {
		le  float64
		cum uint64
		inf bool
	}
	var buckets []bucket
	for key, val := range s {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		block := key[len(prefix) : len(key)-1]
		le, rest, ok := extractLE(block)
		if !ok || rest != base {
			continue
		}
		b := bucket{cum: uint64(val)}
		if le == "+Inf" {
			b.inf = true
		} else {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			b.le = f
		}
		buckets = append(buckets, b)
	}
	if len(buckets) == 0 {
		return HistSnapshot{}, false
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].inf != buckets[j].inf {
			return buckets[j].inf
		}
		return buckets[i].le < buckets[j].le
	})
	snap := HistSnapshot{
		Bounds: make([]float64, 0, len(buckets)-1),
		Counts: make([]uint64, len(buckets)),
	}
	var prev uint64
	for i, b := range buckets {
		if !b.inf {
			snap.Bounds = append(snap.Bounds, b.le)
		}
		if b.cum >= prev {
			snap.Counts[i] = b.cum - prev
		}
		snap.Count += snap.Counts[i]
		prev = b.cum
	}
	snap.Sum, _ = s.Value(name+"_sum", labels...)
	return snap, true
}

// extractLE pulls the le="..." label out of a sorted-rendered label block,
// returning the le value and the remaining block.
func extractLE(block string) (le, rest string, ok bool) {
	const tag = `le="`
	i := strings.Index(block, tag)
	if i < 0 {
		return "", "", false
	}
	end := strings.IndexByte(block[i+len(tag):], '"')
	if end < 0 {
		return "", "", false
	}
	le = block[i+len(tag) : i+len(tag)+end]
	before := strings.TrimSuffix(block[:i], ",")
	after := strings.TrimPrefix(block[i+len(tag)+end+1:], ",")
	switch {
	case before == "":
		rest = after
	case after == "":
		rest = before
	default:
		rest = before + "," + after
	}
	return le, rest, true
}
