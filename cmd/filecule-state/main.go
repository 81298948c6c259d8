// Command filecule-state inspects durable state directories offline.
//
//	filecule-state dump -dir /var/lib/filecule    # print what's on disk
//	filecule-state dump -dir state -groups        # include per-group counts
//
// dump is strictly read-only: it never truncates torn tails, never removes
// leftover temporary files, and never rewrites anything — it reports what
// recovery would do. A torn tail on the newest WAL is a normal crash
// artifact and exits 0 with a note; real corruption (a bad checkpoint,
// damage below the newest WAL, a gapped chain, a wal-<epoch>.<n> segment an
// older version left) exits 1 and names the failing file and, for a bad
// chunk, its byte offset. Usage errors exit 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"filecule/internal/cli"
	"filecule/internal/durable"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: filecule-state <subcommand> [flags]

subcommands:
  dump -dir <state-dir> [-groups]   print checkpoints, the WAL of each epoch, and corruption findings`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "dump":
		runDump(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "filecule-state: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func runDump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	dir := fs.String("dir", "", "state directory to inspect (required)")
	groups := fs.Bool("groups", false, "list every filecule group's file and request counts")
	cli.Parse(fs, args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "filecule-state dump: -dir is required")
		fs.Usage()
		os.Exit(2)
	}
	rep, err := durable.Inspect(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "filecule-state:", err)
		os.Exit(1)
	}
	rep.WriteTo(os.Stdout, *groups)
	if len(rep.Problems) > 0 {
		fmt.Fprintf(os.Stderr, "filecule-state: %d corruption finding(s) in %s\n", len(rep.Problems), *dir)
		os.Exit(1)
	}
}
