package workflow

import (
	"errors"
	"strings"
	"testing"
)

// FuzzSpecBuild throws arbitrary bytes at the spec pipeline: ParseSpec,
// Build against a small registry, then Finalize. No input may panic, every
// failure must either wrap one of the package's error sentinels or carry the
// "workflow spec:" prefix, and a built workflow must finalize again cleanly.
func FuzzSpecBuild(f *testing.F) {
	for _, seed := range []string{
		`{"name":"s","steps":[{"id":"a","processor":"nop","source":true,"outputs":["raw"]},` +
			`{"id":"b","processor":"nop","inputs":["raw"],"outputs":["out/pre"],"maxError":0.1,` +
			`"impactFunc":"dsl:sqrt(sum(sqdelta)/m)","mode":"accumulate","combiner":"max"}]}`,
		`{"steps":[{"id":"a","processor":"nop","outputs":["t"],"after":["b"]},{"id":"b","processor":"nop","outputs":["u"],"after":["a"]}]}`,
		`{"steps":[{"id":"a","processor":"ghost","outputs":["t"]}]}`,
		`{"steps":[{"id":"a","processor":"nop","outputs":["t"],"maxError":0.5,"impactFunc":"dsl:(("}]}`,
		`{"steps":[{"id":"a","processor":"nop","outputs":["/x"],"mode":"bogus"}]}`,
		`{"steps":[]}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	sentinels := []error{ErrDuplicateStep, ErrUnknownStep, ErrCycle, ErrNoSteps, ErrNotFinalized, ErrInvalidStep}
	checkErr := func(t *testing.T, what string, err error) {
		t.Helper()
		if strings.HasPrefix(err.Error(), "workflow spec: ") {
			return
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return
			}
		}
		t.Fatalf("%s: untyped error %q", what, err)
	}
	reg := Registry{"nop": ProcessorFunc(func(*Context) error { return nil })}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			checkErr(t, "parse", err)
			return
		}
		w, err := spec.Build(reg)
		if err != nil {
			checkErr(t, "build", err)
			return
		}
		if err := w.Finalize(); err != nil {
			t.Fatalf("Finalize of a built workflow: %v", err)
		}
	})
}
