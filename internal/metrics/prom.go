package metrics

import (
	"fmt"
	"io"
	"strings"
)

// promWriter renders the Prometheus text exposition format: the one place
// that spells HELP/TYPE lines, label sets and label escaping. The first
// write error sticks and is what the caller returns.
type promWriter struct {
	w    io.Writer
	name string // the open family
	err  error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// family opens a metric family: a counter, or a gauge.
func (p *promWriter) family(name, help string, gauge bool) {
	kind := "counter"
	if gauge {
		kind = "gauge"
	}
	p.name = name
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one series of the open family. v is an integer or a float;
// labels are name, value pairs, in the order they are to appear.
func (p *promWriter) sample(v any, labels ...string) {
	var set strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&set, `%s%s="%s"`, sep, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	if set.Len() > 0 {
		set.WriteByte('}')
	}
	p.printf("%s%s %v\n", p.name, set.String(), v)
}

// series is one unlabelled series of a counter struct C: name, help, kind
// and a loader — a func(*C) int64, or a func(*C) float64 for the rare series
// that is not a count.
type series[C any] struct {
	name, help string
	gauge      bool
	load       any
}

// writeSeries renders every series of c, one HELP/TYPE pair each, reading
// each value exactly once — a consistent-enough snapshot for monotonic
// counters.
func writeSeries[C any](w io.Writer, c *C, all []series[C]) error {
	p := promWriter{w: w}
	for _, m := range all {
		p.family(m.name, m.help, m.gauge)
		switch load := m.load.(type) {
		case func(*C) int64:
			p.sample(load(c))
		case func(*C) float64:
			p.sample(load(c))
		default:
			panic("metrics: series " + m.name + " has no loader")
		}
	}
	return p.err
}
