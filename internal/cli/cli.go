// Package cli holds what the filecule command line tools share: the flag
// parse every tool runs, the one -workload flag every workload-consuming
// tool registers, and the trace encoders behind -format and -gz. Everything
// that constructs a job stream is internal/workload's; a tool hands the
// flag's value to workload.Open, Load or OpenOrdered.
package cli

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"filecule/internal/trace"
	"filecule/internal/workload"
)

// Parse parses args into fs, an ExitOnError set, and exits 2 with fs's usage
// when an argument is left over: parsing stops at the first non-flag, so
// every flag after a stray word (as in "-peers b:9091, c:9091") would
// otherwise be dropped without a word.
func Parse(fs *flag.FlagSet, args []string) {
	_ = fs.Parse(args) // ExitOnError: a bad flag has already exited 2
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "%s: unexpected argument %q; every flag after it would be ignored\n", fs.Name(), fs.Arg(0))
		fs.Usage()
		os.Exit(2)
	}
}

// WorkloadFlag registers -workload on fs (flag.CommandLine for tools using
// the global set), the same flag with the same default and help in every
// tool, and returns the spec it is bound to.
func WorkloadFlag(fs *flag.FlagSet) *string {
	return fs.String("workload", workload.DefaultSpec,
		"workload spec name[,key=value]... — adapters: "+strings.Join(workload.Names(), ", ")+
			" (-workload help lists every option)")
}

// NewEncoder returns a streaming encoder writing the chosen codec to w,
// optionally gzip-framed. Closing the encoder flushes the codec and the
// gzip layer but leaves w open.
func NewEncoder(w io.Writer, format string, gz bool, files []trace.File, users []trace.User, sites []trace.Site) (trace.JobWriter, error) {
	if err := workload.CheckFormat(format); err != nil {
		return nil, err
	}
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(w)
		w = zw
	}
	var enc trace.JobWriter
	var err error
	switch format {
	case "bin":
		enc, err = trace.NewBinWriter(w, files, users, sites)
	default:
		enc, err = trace.NewTextWriter(w, files, users, sites)
	}
	if err != nil {
		if zw != nil {
			zw.Close()
		}
		return nil, err
	}
	if zw != nil {
		return &gzipEncoder{JobWriter: enc, zw: zw}, nil
	}
	return enc, nil
}

// WriteTrace writes a materialized trace in the chosen codec, optionally
// gzip-framed.
func WriteTrace(w io.Writer, t *trace.Trace, format string, gz bool) error {
	enc, err := NewEncoder(w, format, gz, t.Files, t.Users, t.Sites)
	if err != nil {
		return err
	}
	for i := range t.Jobs {
		if err := enc.WriteJob(&t.Jobs[i]); err != nil {
			return err
		}
	}
	return enc.Close()
}

// gzipEncoder closes the gzip frame after the codec's own Close.
type gzipEncoder struct {
	trace.JobWriter
	zw *gzip.Writer
}

func (e *gzipEncoder) Close() error {
	err := e.JobWriter.Close()
	if cerr := e.zw.Close(); err == nil {
		err = cerr
	}
	return err
}
