package main

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"

	"powerstack/internal/obs"
)

// promSeries is one exposition line of the sink's metrics: the metric name,
// its rendered label set and its value.
type promSeries struct {
	name   string
	labels string
	value  float64
}

// counters is a snapshot of every series the program's obs.Sink exports,
// read through its Prometheus exposition so label sets need not be known
// in advance.
type counters []promSeries

func readCounters(s *obs.Sink) (counters, error) {
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	var out counters
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
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
		series := line[:sp]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		out = append(out, promSeries{name: name, labels: labels, value: v})
	}
	return out, sc.Err()
}

// total sums every series of the named metric.
func (c counters) total(name string) float64 {
	t := 0.0
	for _, s := range c {
		if s.name == name {
			t += s.value
		}
	}
	return t
}

// labeled sums the series of the named metric carrying key="value".
func (c counters) labeled(name, key, value string) float64 {
	want := key + `="` + value + `"`
	t := 0.0
	for _, s := range c {
		if s.name == name && strings.Contains(s.labels, want) {
			t += s.value
		}
	}
	return t
}

// histQuantile reads a quantile from one of the sink's histograms (linear
// interpolation inside its buckets); 0 when it holds no observations.
func histQuantile(s *obs.Sink, name string, buckets []float64, q float64) float64 {
	return finite(s.Metrics.Histogram(name, buckets).Quantile(q))
}

// finite maps NaN and infinities to 0 so every metric encodes as JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// doneTimes drains the sink's live event stream while the traced unit runs
// and keeps the wall seconds of every finished sim cell and campaign
// scenario. The journal cannot hold them: it is a ring that the per-host
// cap-write events overrun.
type doneTimes struct {
	sub        *obs.Subscriber
	stop, done chan struct{}
	dropped    bool

	cells, scenarios []float64
}

// streamBuffer is the subscriber's buffer in events. The stream drops a
// subscriber whose buffer fills, and one 100k-node replan publishes about
// 70k cap-write events in a burst while every processor may be busy; the
// buffer holds several such bursts until the drain goroutine runs.
const streamBuffer = 1 << 18

func watchDone(s *obs.Sink) *doneTimes {
	w := &doneTimes{sub: s.Stream.Subscribe(streamBuffer), stop: make(chan struct{}), done: make(chan struct{})}
	go w.drain()
	return w
}

func (w *doneTimes) take(e obs.Event) {
	if e.Value <= 0 {
		return // a start, not a finish
	}
	switch e.Type {
	case obs.EvCell:
		w.cells = append(w.cells, e.Value)
	case obs.EvCampaignShard:
		w.scenarios = append(w.scenarios, e.Value)
	}
}

func (w *doneTimes) drain() {
	defer close(w.done)
	for {
		select {
		case e, ok := <-w.sub.C():
			if !ok {
				w.dropped = true
				return
			}
			w.take(e)
		case <-w.stop:
			// The unit has returned, so every event it recorded is
			// already buffered.
			for {
				select {
				case e, ok := <-w.sub.C():
					if !ok {
						w.dropped = true
						return
					}
					w.take(e)
				default:
					return
				}
			}
		}
	}
}

// close stops the watcher once the unit has returned.
func (w *doneTimes) close() error {
	if w.sub == nil {
		return nil // never watched
	}
	close(w.stop)
	<-w.done
	w.sub.Close()
	if w.dropped {
		return errors.New("the obs event stream dropped the benchmark's subscriber")
	}
	return nil
}
