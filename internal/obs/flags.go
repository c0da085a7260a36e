package obs

import (
	"flag"
	"net/http"
)

// ServerFlags is the observability flag surface every long-running
// server binary shares (mp4served, mp4worker): -log-level and -pprof
// behave identically everywhere because they are registered and
// applied here, not re-implemented per command.
type ServerFlags struct {
	LogLevel string
	Pprof    bool
}

// RegisterServerFlags registers the shared flags on fs (the default
// flag.CommandLine in the binaries) and returns the destination
// struct; call Apply after fs.Parse.
func RegisterServerFlags(fs *flag.FlagSet) *ServerFlags {
	f := &ServerFlags{}
	fs.StringVar(&f.LogLevel, "log-level", "info", "structured-log threshold: debug, info, warn, error")
	fs.BoolVar(&f.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	return f
}

// Apply installs the parsed log threshold into process-wide
// observability state. Returns the ParseLevel error verbatim so
// commands can prefix their own name.
func (f *ServerFlags) Apply() error {
	lvl, err := ParseLevel(f.LogLevel)
	if err != nil {
		return err
	}
	SetLogLevel(lvl)
	return nil
}

// Wrap applies the handler-level effects (today: the pprof mount) to a
// command's root handler.
func (f *ServerFlags) Wrap(h http.Handler) http.Handler {
	return WithPprof(h, f.Pprof)
}
