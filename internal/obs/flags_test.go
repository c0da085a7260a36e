package obs

import (
	"flag"
	"io"
	"testing"
)

// TestServerFlagsSurface: the server binaries share exactly -log-level
// and -pprof; instrumentation has no off switch, so -metrics is an
// unknown flag.
func TestServerFlagsSurface(t *testing.T) {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterServerFlags(fs)
	if err := fs.Parse([]string{"-log-level", "warn", "-pprof"}); err != nil {
		t.Fatal(err)
	}
	if f.LogLevel != "warn" || !f.Pprof {
		t.Fatalf("parsed %+v", *f)
	}
	for _, arg := range []string{"-metrics=false", "-metrics"} {
		fs := flag.NewFlagSet("server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterServerFlags(fs)
		if err := fs.Parse([]string{arg}); err == nil {
			t.Errorf("%s was accepted", arg)
		}
	}
}
