package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"

	"cape/internal/asm"
	"cape/internal/core"
	"cape/internal/query"
	"cape/internal/server"
)

// refRAMBytes sizes the reference machines of source and query jobs:
// their programs touch the low 4 MiB only, and a small RAM keeps a
// fresh machine per request cheap. Workload jobs keep the standard
// layout.
const refRAMBytes = 4 << 20

// refAnswer is the fresh-machine reference of one item: the response
// the server must reproduce, or the compile error a malformed item
// must fail with.
type refAnswer struct {
	resp *server.Response
	err  error
}

// reference runs it on a freshly built machine in process, through the
// same Compile and Exec calls the server's workers make. Pooled
// machines must give the same modeled results; a difference means
// state leaked through Reset.
func reference(it *item) refAnswer {
	spec, err := server.Compile(it.req, server.Options{})
	if err != nil {
		return refAnswer{err: err}
	}
	cfg := spec.Config
	if spec.Workload == nil {
		cfg.RAMBytes = refRAMBytes
	}
	resp, err := server.Exec(context.Background(), core.New(cfg), spec)
	return refAnswer{resp: resp, err: err}
}

// errorBody is the caped JSON error shape the benchmark reads.
type errorBody struct {
	Error       string           `json:"error"`
	Status      string           `json:"status"`
	Diagnostics []asm.Diagnostic `json:"diagnostics"`
}

// verify checks one HTTP answer to it: the status, the Go-model answer
// (dumps, query results, workload checks) and the modeled fields
// against the fresh-machine reference. It returns the decoded response
// of a successful job.
func verify(it *item, ref refAnswer, status int, body []byte) (*server.Response, error) {
	if it.malformed {
		if status != http.StatusUnprocessableEntity {
			return nil, fmt.Errorf("malformed program: status %d, want 422", status)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			return nil, fmt.Errorf("malformed program: decode error body: %w", err)
		}
		if len(eb.Diagnostics) == 0 {
			return nil, errors.New("malformed program: 422 without diagnostics")
		}
		var dl asm.DiagnosticList
		if !errors.As(ref.err, &dl) {
			return nil, fmt.Errorf("malformed program: reference compile gave %v", ref.err)
		}
		return nil, nil
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, truncate(body, 200))
	}
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if err := checkAnswer(it, ref, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// checkAnswer compares a decoded response with the Go model and the
// fresh-machine reference.
func checkAnswer(it *item, ref refAnswer, resp *server.Response) error {
	if ref.err != nil {
		return fmt.Errorf("reference run failed: %v", ref.err)
	}
	want := ref.resp
	if resp.Program != want.Program || resp.Config != want.Config ||
		resp.Chains != want.Chains || resp.Backend != want.Backend {
		return fmt.Errorf("ran %s on %s/%d/%s, reference %s on %s/%d/%s",
			resp.Program, resp.Config, resp.Chains, resp.Backend,
			want.Program, want.Config, want.Chains, want.Backend)
	}
	if resp.Result != want.Result {
		return fmt.Errorf("result %+v, fresh machine %+v", resp.Result, want.Result)
	}
	if resp.SimSeconds != want.SimSeconds {
		return fmt.Errorf("sim_seconds %v, fresh machine %v", resp.SimSeconds, want.SimSeconds)
	}
	if it.memory != nil {
		if !reflect.DeepEqual(resp.Memory, it.memory) {
			return fmt.Errorf("memory dump differs from the Go model: got %v want %v",
				head(resp.Memory), head(it.memory))
		}
		if !reflect.DeepEqual(resp.Memory, want.Memory) {
			return errors.New("memory dump differs from the fresh machine")
		}
	}
	if it.req.Workload != "" {
		if resp.CheckOK == nil || !*resp.CheckOK {
			return fmt.Errorf("workload check failed: %s", resp.CheckError)
		}
	}
	if it.query != nil {
		if resp.Query == nil || want.Query == nil {
			return errors.New("query job without a query result")
		}
		if err := sameQueryAnswer(resp.Query, it.query); err != nil {
			return err
		}
		if resp.Query.Stats != want.Query.Stats {
			return fmt.Errorf("query stats %+v, fresh machine %+v", resp.Query.Stats, want.Query.Stats)
		}
	}
	return nil
}

// sameQueryAnswer compares the answer fields of two query results,
// treating nil and empty lists alike.
func sameQueryAnswer(got, want *query.Result) error {
	switch {
	case got.Kind != want.Kind || got.Rows != want.Rows:
		return fmt.Errorf("query %s over %d rows, want %s over %d", got.Kind, got.Rows, want.Kind, want.Rows)
	case len(got.Hits) != len(want.Hits) || (len(want.Hits) > 0 && !reflect.DeepEqual(got.Hits, want.Hits)):
		return errors.New("query hits differ from a Go scan")
	case len(got.Indices) != len(want.Indices) || (len(want.Indices) > 0 && !reflect.DeepEqual(got.Indices, want.Indices)):
		return errors.New("query indices differ from a Go scan")
	case len(got.Pairs) != len(want.Pairs) || (len(want.Pairs) > 0 && !reflect.DeepEqual(got.Pairs, want.Pairs)):
		return errors.New("query pairs differ from a Go scan")
	case len(got.Matches) != len(want.Matches) || (len(want.Matches) > 0 && !reflect.DeepEqual(got.Matches, want.Matches)):
		return errors.New("query matches differ from a Go scan")
	}
	return nil
}

func head(w []uint32) []uint32 {
	if len(w) > 4 {
		return w[:4]
	}
	return w
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// sameAnswer compares a replayed answer with the HTTP run's answer to
// the same request.
func sameAnswer(it *item, s sample, httpResp *server.Response, a replayAnswer) error {
	if a.err != nil {
		return fmt.Errorf("replay failed: %v", a.err)
	}
	if it.malformed {
		var eb errorBody
		if s.status != http.StatusUnprocessableEntity || json.Unmarshal(s.body, &eb) != nil {
			return errors.New("the HTTP run did not reject the malformed program")
		}
		if !reflect.DeepEqual(eb.Diagnostics, []asm.Diagnostic(a.diags)) {
			return errors.New("diagnostics differ from the HTTP run's")
		}
		return nil
	}
	if httpResp == nil {
		return errors.New("the HTTP run has no verified answer here")
	}
	return sameResponse(httpResp, a.resp)
}

// sameReplay compares the spans-on and spans-off replays' answers.
func sameReplay(a, b replayAnswer) error {
	if (a.err == nil) != (b.err == nil) || !reflect.DeepEqual(a.diags, b.diags) {
		return errors.New("replays with and without spans disagree")
	}
	if a.resp == nil || b.resp == nil {
		if a.resp != b.resp {
			return errors.New("replays with and without spans disagree")
		}
		return nil
	}
	return sameResponse(a.resp, b.resp)
}

// sameResponse compares the answer and modeled fields of two responses.
func sameResponse(x, y *server.Response) error {
	switch {
	case x.Program != y.Program || x.Config != y.Config || x.Chains != y.Chains || x.Backend != y.Backend:
		return fmt.Errorf("ran %s on %s/%d/%s vs %s on %s/%d/%s",
			x.Program, x.Config, x.Chains, x.Backend, y.Program, y.Config, y.Chains, y.Backend)
	case x.Result != y.Result:
		return fmt.Errorf("result %+v vs %+v", x.Result, y.Result)
	case x.SimSeconds != y.SimSeconds:
		return fmt.Errorf("sim_seconds %v vs %v", x.SimSeconds, y.SimSeconds)
	case (x.CheckOK == nil) != (y.CheckOK == nil) || (x.CheckOK != nil && *x.CheckOK != *y.CheckOK):
		return errors.New("check_ok differs")
	case len(x.Memory) != len(y.Memory) || (len(x.Memory) > 0 && !reflect.DeepEqual(x.Memory, y.Memory)):
		return errors.New("memory dump differs")
	case (x.Query == nil) != (y.Query == nil):
		return errors.New("query result present on one side only")
	}
	if x.Query != nil {
		if err := sameQueryAnswer(x.Query, y.Query); err != nil {
			return err
		}
		if x.Query.Stats != y.Query.Stats {
			return fmt.Errorf("query stats %+v vs %+v", x.Query.Stats, y.Query.Stats)
		}
	}
	return nil
}
