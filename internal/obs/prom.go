package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a metrics
// snapshot, plus the matching validator the tests use to check a
// scraped endpoint. Zero-dependency on purpose: the format is a few
// line shapes, and generating + validating it ourselves keeps the
// whole telemetry chain inside the repo.

// PrometheusContentType is the Content-Type an exposition response
// carries.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName maps a registry metric name (dotted) to a legal Prometheus
// metric name: every character outside [a-zA-Z0-9_:] becomes '_', and a
// leading digit is prefixed.
func promName(name string) string {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders a snapshot in the text exposition format:
// every counter and gauge as a single sample with a # TYPE header, and
// every histogram as the conventional cumulative _bucket series (le
// labels, final +Inf) plus _sum and _count. Families are sorted by
// exposition name so repeated exports of identical state are
// byte-identical.
func WritePrometheus(w io.Writer, snap MetricsSnapshot) error {
	bw := bufio.NewWriter(w)
	type family struct {
		kind string
		emit func() // writes the samples
	}
	fams := map[string]family{}
	for name, v := range snap.Counters {
		n, v := promName(name), v
		fams[n] = family{kind: "counter", emit: func() {
			fmt.Fprintf(bw, "%s %d\n", n, v)
		}}
	}
	for name, v := range snap.Gauges {
		n, v := promName(name), v
		fams[n] = family{kind: "gauge", emit: func() {
			fmt.Fprintf(bw, "%s %d\n", n, v)
		}}
	}
	for name, h := range snap.Histograms {
		n, h := promName(name), h
		fams[n] = family{kind: "histogram", emit: func() {
			var cum int64
			for _, b := range h.Buckets {
				cum += b.Count
				le := "+Inf"
				if b.LE != nil {
					le = strconv.FormatInt(*b.LE, 10)
				}
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", n, le, cum)
			}
			fmt.Fprintf(bw, "%s_sum %d\n", n, h.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", n, h.Count)
		}}
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, f.kind)
		f.emit()
	}
	return bw.Flush()
}

// ValidatePrometheus checks that data is a well-formed text exposition
// as WritePrometheus emits it (and as Prometheus itself would accept).
// The exposition's own rules come first: every sample belongs to a
// family declared by one preceding # TYPE line, names and values parse,
// every bucket carries an integer le label (or +Inf), and every
// histogram has _sum and _count. The samples are then read back into a
// MetricsSnapshot, with the cumulative buckets taken apart, and checked
// against the schema ValidateMetricsJSON applies.
func ValidatePrometheus(data []byte) error {
	type histState struct {
		snap             HistSnapshot
		cum              int64 // the previous bucket's cumulative count
		sawSum, sawCount bool
	}
	types := map[string]string{}
	hists := map[string]*histState{}
	snap := MetricsSnapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]HistSnapshot{}}

	lineNo := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) < 4 {
					return fmt.Errorf("obs: prometheus: line %d: malformed TYPE line", lineNo)
				}
				name, kind := fields[2], fields[3]
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("obs: prometheus: line %d: unknown type %q", lineNo, kind)
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("obs: prometheus: line %d: duplicate TYPE for %s", lineNo, name)
				}
				types[name] = kind
				if kind == "histogram" {
					hists[name] = &histState{}
				}
			}
			// HELP and other comments pass through.
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("obs: prometheus: line %d: %v", lineNo, err)
		}
		base, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, s) {
				if _, ok := hists[strings.TrimSuffix(name, s)]; ok {
					base, suffix = strings.TrimSuffix(name, s), s
				}
			}
		}
		kind, declared := types[base]
		if !declared {
			return fmt.Errorf("obs: prometheus: line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		switch kind {
		case "counter":
			snap.Counters[name] = int64(value)
		case "gauge":
			snap.Gauges[name] = int64(value)
		case "histogram":
			h := hists[base]
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("obs: prometheus: line %d: %s lacks an le label", lineNo, name)
				}
				b := HistBucket{Count: int64(value) - h.cum}
				h.cum = int64(value)
				if le != "+Inf" {
					bound, err := strconv.ParseInt(le, 10, 64)
					if err != nil {
						return fmt.Errorf("obs: prometheus: line %d: bad le %q", lineNo, le)
					}
					b.LE = &bound
				}
				h.snap.Buckets = append(h.snap.Buckets, b)
			case "_sum":
				h.sawSum, h.snap.Sum = true, int64(value)
			case "_count":
				h.sawCount, h.snap.Count = true, int64(value)
			default:
				return fmt.Errorf("obs: prometheus: line %d: unexpected histogram sample %s", lineNo, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: prometheus: %v", err)
	}
	for name, h := range hists {
		if !h.sawSum || !h.sawCount {
			return fmt.Errorf("obs: prometheus: histogram %s lacks _sum or _count", name)
		}
		snap.Histograms[name] = h.snap
	}
	if err := snap.validate(); err != nil {
		return fmt.Errorf("obs: prometheus: %w", err)
	}
	return nil
}

// parsePromSample splits one sample line into name, labels and value.
func parsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		labels = map[string]string{}
		for _, pair := range splitLabels(rest[i+1 : j]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed label %q", pair)
			}
			k := strings.TrimSpace(pair[:eq])
			v := strings.TrimSpace(pair[eq+1:])
			uq, uerr := strconv.Unquote(v)
			if uerr != nil {
				return "", nil, 0, fmt.Errorf("unquotable label value %q", v)
			}
			labels[k] = uq
		}
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if !validPromName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q", fields[0])
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '\\' && inQ && i+1 < len(body):
			cur.WriteByte(c)
			i++
			cur.WriteByte(body[i])
		case c == '"':
			inQ = !inQ
			cur.WriteByte(c)
		case c == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if s := strings.TrimSpace(cur.String()); s != "" {
		out = append(out, s)
	}
	return out
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
