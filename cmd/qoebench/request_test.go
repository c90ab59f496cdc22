package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// runOptions are the request's body-only fields: the CLI sets them
// through -seed/-duration/-warmup/-reps/-clip on the base options.
var runOptions = map[string]bool{"seed": true, "duration_s": true, "warmup_s": true, "reps": true, "clip_s": true}

// axisFields are request's fields that a body and a flag both set.
func axisFields() []reflect.StructField {
	var out []reflect.StructField
	for _, f := range reflect.VisibleFields(reflect.TypeOf(request{})) {
		if !runOptions[f.Tag.Get("json")] {
			out = append(out, f)
		}
	}
	return out
}

// TestEveryAxisHasAFlag: each axis field of request is bound to a
// flag, so a field added for one surface only fails here.
func TestEveryAxisHasAFlag(t *testing.T) {
	var q request
	fs := flag.NewFlagSet("qoebench", flag.ContinueOnError)
	q.bind(fs)
	bound := map[uintptr]bool{}
	fs.VisitAll(func(f *flag.Flag) { bound[reflect.ValueOf(f.Value).Pointer()] = true })
	v := reflect.ValueOf(&q).Elem()
	for _, f := range axisFields() {
		if !bound[v.FieldByIndex(f.Index).Addr().Pointer()] {
			t.Errorf("request.%s (%q in a body) has no flag", f.Name, f.Tag.Get("json"))
		}
	}
}

// TestFlagsAndBodyCompileAlike: the flags and the body that spell the
// same question compile to the same Sweep and RecommendSpec (or the
// same error), down to the nanosecond of a millisecond field.
func TestFlagsAndBodyCompileAlike(t *testing.T) {
	cases := []struct {
		name string
		args []string
		body string
	}{
		{"defaults", nil, `{}`},
		{"empty lists", []string{"-workloads", "", "-probes", ""}, `{"workloads": [], "probes": []}`},
		{"backbone", []string{"-network", "backbone", "-workloads", "long", "-buffers", "28,749"},
			`{"network": "backbone", "workloads": ["long"], "buffers": [28, 749]}`},
		{"presets", []string{"-workloads", "short-few, long-many", "-dir", "up", "-probes", "voip,video:HD"},
			`{"workloads": ["short-few", "long-many"], "dir": "up", "probes": ["voip", "video:HD"]}`},
		{"mix", []string{"-mix", "up:long=2;down:web=16x3/1.5s", "-bufup", "256"},
			`{"mix": "up:long=2;down:web=16x3/1.5s", "bufup": 256}`},
		{"queue", []string{"-aqm", "fq-codel", "-cc", "bbr", "-jitter", "1.234567891s"},
			`{"aqm": "fq-codel", "cc": "bbr", "jitter_ms": 1234.567891}`},
		{"custom link", []string{"-uprate", "1e9", "-downrate", "2.5e8", "-clientdelay", "2ms", "-serverdelay", "10.5ms", "-reorder", "0.01"},
			`{"uprate": 1e9, "downrate": 2.5e8, "client_delay_ms": 2, "server_delay_ms": 10.5, "reorder": 0.01}`},
		{"wifi", []string{"-link", "wifi", "-stations", "8", "-wifiretry", "3", "-wifiagg", "4"},
			`{"link": "wifi", "stations": 8, "wifi_retry": 3, "wifi_agg": 4}`},
		{"max-mos", []string{"-workloads", "long-many", "-dir", "bidir", "-target", "max-mos", "-threshold", "4"},
			`{"workloads": ["long-many"], "dir": "bidir", "target": "max-mos", "threshold": 4}`},
		{"min-mos", []string{"-target", "min-mos", "-threshold", "3"}, `{"target": "min-mos", "threshold": 3}`},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fromFlags request
			fs := flag.NewFlagSet("qoebench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			fromFlags.bind(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			fromBody, ok := decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/sweep", strings.NewReader(tc.body)))
			if !ok {
				t.Fatalf("body rejected: %s", rec.Body.Bytes())
			}
			var keys map[string]any
			if err := json.Unmarshal([]byte(tc.body), &keys); err != nil {
				t.Fatal(err)
			}
			for k := range keys {
				covered[k] = true
			}

			swF, errF := fromFlags.sweep()
			swB, errB := fromBody.sweep()
			if errF != nil || errB != nil {
				t.Fatalf("sweep: flags %v, body %v", errF, errB)
			}
			if !reflect.DeepEqual(swF, swB) {
				t.Fatalf("sweep differs:\nflags %+v\n body %+v", swF, swB)
			}
			recF, errF := fromFlags.recommend()
			recB, errB := fromBody.recommend()
			if fmt.Sprint(errF) != fmt.Sprint(errB) || !reflect.DeepEqual(recF, recB) {
				t.Fatalf("recommend differs:\nflags %+v (%v)\n body %+v (%v)", recF, errF, recB, errB)
			}
		})
	}
	for _, f := range axisFields() {
		if tag := f.Tag.Get("json"); !covered[tag] {
			t.Errorf("no case sets %q", tag)
		}
	}
}
