// Command filecule-gen writes the trace of any registered workload (DZero by
// default; a recorded trace, to convert it between codecs), or a synthetic
// Meta-format KV-cache CSV. Output is the v1 text format or the
// filecule-bin/v1 binary columnar format:
//
//	filecule-gen -workload dzero,seed=7,scale=0.05 -o trace.txt
//	filecule-gen -format bin -o trace.bin
//	filecule-gen -workload file,path=trace.txt -format bin -o trace.bin
//	filecule-gen -workload dzero,seed=1,scale=1 -stream -format bin -o full.bin  # bounded memory
//	filecule-gen -workload xrootd,seed=3,scale=0.1 -format bin -o x.bin
//	filecule-gen -workload dzero,seed=1,scale=0.05,shape=burst -o burst.txt
//	filecule-gen -kv-csv 100000 -kv-keys 5000 -kv-seed 1 -o kv.csv  # KV trace input
//
// By default the workload is materialized and written in its loaded order:
// sorted by job start time for the generators (byte-identical across runs of
// the same seed), stored order for a file. With -stream, jobs are piped from
// the workload to the encoder one at a time in its stream order (generation
// order for dzero), so memory stays bounded by the catalog at any scale;
// readers that need start-time order can sort after decoding.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"

	"filecule/internal/cli"
	"filecule/internal/trace"
	"filecule/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("filecule-gen", flag.ExitOnError)
	var (
		spec   = cli.WorkloadFlag(fs)
		out    = fs.String("o", "-", "output path ('-' for stdout)")
		gz     = fs.Bool("gz", false, "gzip-compress the output")
		format = fs.String("format", "text", "output codec: text or bin")
		stream = fs.Bool("stream", false, "stream jobs straight to the encoder (bounded memory, adapter stream order)")
		kvRows = fs.Int("kv-csv", 0, "write a synthetic Meta-format KV-cache CSV with this many rows instead of a trace")
		kvKeys = fs.Int("kv-keys", 1000, "distinct keys in the synthetic KV-cache CSV")
		kvSeed = fs.Int64("kv-seed", 1, "generator seed of the synthetic KV-cache CSV")
	)
	cli.Parse(fs, args)
	if *kvRows == 0 {
		if err := workload.CheckFormat(*format); err != nil {
			return err
		}
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "-" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			return err
		}
		w = f
	}

	var jobs, files, users, sites int
	var err error
	switch {
	case *kvRows != 0:
		out := io.Writer(w)
		var zw *gzip.Writer
		if *gz {
			zw = gzip.NewWriter(w)
			out = zw
		}
		err = workload.GenKVCSV(out, *kvSeed, *kvKeys, *kvRows)
		if err == nil && zw != nil {
			err = zw.Close()
		}
	case *stream:
		jobs, files, users, sites, err = copyStream(w, *spec, *format, *gz)
	default:
		var t *trace.Trace
		t, err = workload.Load(*spec)
		if err == nil {
			err = cli.WriteTrace(w, t, *format, *gz)
		}
		if err == nil {
			jobs, files, users, sites = len(t.Jobs), len(t.Files), len(t.Users), len(t.Sites)
		}
	}
	if err != nil {
		// A refused workload or a failed encode leaves no output file, not
		// an empty or partial one.
		if f != nil {
			f.Close()
			os.Remove(*out)
		}
		return err
	}
	// Close errors surface buffered-write failures (full disk); a silent
	// exit 0 here would report a truncated trace as success.
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *kvRows != 0 {
		fmt.Fprintf(stderr, "wrote %d KV-cache CSV rows over %d keys\n", *kvRows, *kvKeys)
	} else {
		fmt.Fprintf(stderr, "wrote %d jobs, %d files, %d users, %d sites (%s)\n",
			jobs, files, users, sites, *format)
	}
	return nil
}

// copyStream pipes a workload's job stream into a fresh encoder without
// materializing the trace.
func copyStream(w io.Writer, spec, format string, gz bool) (jobs, files, users, sites int, err error) {
	src, err := workload.Open(spec)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer src.Close()
	enc, err := cli.NewEncoder(w, format, gz, src.Files(), src.Users(), src.Sites())
	if err != nil {
		return 0, 0, 0, 0, err
	}
	n, err := trace.CopySource(enc, src)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return int(n), len(src.Files()), len(src.Users()), len(src.Sites()), nil
}
