package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// readmeJobs is the jobs.json of the README's walkthrough.
const readmeJobs = `{
  "frames": 2,
  "experiments": [
    {"table": 2},
    {"figure": 2},
    {"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512, 1024]}
  ]
}
`

// acceptedSubmissions are valid submission bodies: the manifests of the
// README and of the mp4study and mp4served doc comments.
var acceptedSubmissions = []string{
	`{"frames": 2, "experiments": [{"table": 1}]}`,
	`{"experiments":[{"table":2},{"sweep":"ratio"}]}`,
	readmeJobs,
	`{"frames": 6, "parallel": 8, "experiments": [{"table": 2}, {"table": 8}, {"figure": 3},` +
		` {"sweep": "ratio"}, {"sweep": "coloring"},` +
		` {"sweep": "geometry", "l1": [{"size": 32768, "line": 32, "ways": 2}], "l2_kb": [512, 1024]}]}`,
	`{"priority": "interactive", "experiments": [{"sweep": "policy", "policies": ["lru", "fifo"], "l2_kb": [512]}]}`,
}

// FuzzStudySpec drives the submit path's decoding and validation with
// arbitrary bodies; no study runs. Neither step may panic, and a body
// both accept must re-marshal to bytes they accept again, naming the
// same experiments.
func FuzzStudySpec(f *testing.F) {
	for _, tc := range rejectedSubmissions {
		f.Add([]byte(tc.body))
	}
	for _, body := range acceptedSubmissions {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeStudySpec(bytes.NewReader(body))
		if err != nil || spec.Validate() != nil {
			return
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		again, err := DecodeStudySpec(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("re-marshalled spec %s does not decode: %v", raw, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-marshalled spec %s does not validate: %v", raw, err)
		}
		if got, want := experimentLabels(again), experimentLabels(spec); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-marshalled experiments %q, want %q", got, want)
		}
	})
}

// TestAcceptedSubmissionsDecode keeps the fuzz corpus's valid seeds
// valid: each must pass the submit path's decode and validation.
func TestAcceptedSubmissionsDecode(t *testing.T) {
	for _, body := range acceptedSubmissions {
		spec, err := DecodeStudySpec(bytes.NewReader([]byte(body)))
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

func experimentLabels(s StudySpec) []string {
	labels := make([]string, len(s.Experiments))
	for i, e := range s.Experiments {
		labels[i] = e.Label()
	}
	return labels
}
