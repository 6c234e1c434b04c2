package obs

import (
	"encoding/json"
	"io"
)

// Chrome trace_event export: the recorder's timeline rendered in the
// Trace Event Format (JSON object form) that chrome://tracing and
// Perfetto load directly. Two trace "processes" separate the two
// clock domains: pid 1 is modeled machine time (sim spans, ts =
// picoseconds / 1e6 µs), pid 2 is host execution time (CSB run
// spans, ts = nanoseconds / 1e3 µs).

const (
	chromePidSim  = 1
	chromePidHost = 2
)

// chromeEvent is one trace_event entry.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON-object trace container.
type chromeDoc struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

func metaEvent(name string, pid, tid int, value string) chromeEvent {
	return chromeEvent{
		Name: name,
		Ph:   "M",
		Pid:  pid,
		Tid:  tid,
		Args: map[string]any{"name": value},
	}
}

// chromeEvents converts the recorded spans.
func (r *Recorder) chromeEvents() []chromeEvent {
	spans := r.Events()
	evs := make([]chromeEvent, 0, len(spans)+4)
	evs = append(evs,
		metaEvent("process_name", chromePidSim, 0, "CAPE modeled time (cycles)"),
		metaEvent("process_name", chromePidHost, 0, "host execution"),
		metaEvent("thread_name", chromePidSim, 0, "cp/vector pipeline"),
		metaEvent("thread_name", chromePidHost, 0, "csb"),
	)
	for _, s := range spans {
		e := chromeEvent{
			Name: s.Name,
			Cat:  s.Stage.String(),
			Ph:   "X",
		}
		if s.Host {
			e.Pid = chromePidHost
			e.TS = float64(s.Start) / 1e3 // ns -> µs
			e.Dur = float64(s.Dur) / 1e3
		} else {
			e.Pid = chromePidSim
			e.TS = float64(s.Start) / 1e6 // ps -> µs
			e.Dur = float64(s.Dur) / 1e6
		}
		if s.Arg != "" {
			e.Args = map[string]any{s.Arg: s.Val}
		}
		evs = append(evs, e)
	}
	return evs
}

// ChromeTrace renders the timeline as a self-contained Chrome
// trace_event JSON document.
func (r *Recorder) ChromeTrace() []byte {
	if r == nil {
		return nil
	}
	doc := chromeDoc{
		TraceEvents:     r.chromeEvents(),
		DisplayTimeUnit: "ns",
	}
	if d := r.DroppedEvents(); d != 0 {
		doc.OtherData = map[string]any{"dropped_events": d}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		// The document is built from plain values; Marshal cannot fail.
		panic("obs: chrome trace marshal: " + err.Error())
	}
	return b
}

// WriteChrome writes the Chrome trace JSON to w.
func (r *Recorder) WriteChrome(w io.Writer) error {
	_, err := w.Write(r.ChromeTrace())
	return err
}
