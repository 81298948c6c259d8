//go:build slow

// Kill-and-recover differential harness: SIGKILLs a live filecule-serve at
// randomized points — mid-replay, right after an admin checkpoint, during
// the 50ms background checkpoint cadence — then restarts it on the same
// state directory and checks three things against batch identification:
//
//  1. the recovered observed-count N satisfies acked <= N <= sent, so no
//     acknowledged observe is ever lost (-wal-sync commit) and nothing is
//     invented;
//  2. the recovered partition is byte-identical to core.Identify over the
//     first N jobs, for every crash point;
//  3. after several kill-recover cycles on one state directory, finishing
//     the trace converges to the identical partition an uninterrupted run
//     produces;
//  4. between every kill and restart, the read-only walk (`filecule-state
//     dump`, durable.Inspect) finds no corruption — a crash artifact never
//     is — and predicts exactly the count the restarted server reports.
//
// The subprocess is built with -race so crash-window code paths run under
// the race detector. Run via `make kill-recover` (go test -race -tags slow
// -run TestKillAndRecover .).
package filecule_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/server"
	"filecule/internal/trace"
	"filecule/internal/workload"
)

// buildServeRace compiles filecule-serve with the race detector enabled.
func buildServeRace(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "filecule-serve")
	out, err := exec.Command("go", "build", "-race", "-o", bin, "./cmd/filecule-serve").CombinedOutput()
	if err != nil {
		t.Fatalf("build -race filecule-serve: %v\n%s", err, out)
	}
	return bin
}

// serveProc is one run of the filecule-serve subprocess.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
	waited bool
}

var listenRE = regexp.MustCompile(`listening on ([0-9.:]+)`)

// startServe launches the server on a loopback port with strict WAL commits
// and an aggressive background checkpoint cadence, and waits for the listen
// line.
func startServe(t *testing.T, bin, tracePath, stateDir string) *serveProc {
	t.Helper()
	return startServeArgs(t, bin,
		"-addr", "127.0.0.1:0", "-workload", "file,path="+tracePath, "-state-dir", stateDir,
		"-wal-sync", "commit", "-checkpoint-interval", "50ms", "-pprof=false")
}

// startServeArgs launches the serve binary with an arbitrary flag set and
// waits for its listen line.
func startServeArgs(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, stderr: &stderr}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case <-time.After(30 * time.Second):
		p.kill(t)
		t.Fatalf("server did not report a listen address\nstderr:\n%s", stderr.String())
	}
	return p
}

// kill SIGKILLs the subprocess (if still running), reaps it, and fails the
// test if the subprocess race detector fired.
func (p *serveProc) kill(t *testing.T) {
	t.Helper()
	if !p.waited {
		p.cmd.Process.Kill()
		p.cmd.Wait()
		p.waited = true
	}
	if strings.Contains(p.stderr.String(), "DATA RACE") {
		t.Fatalf("race detected in filecule-serve subprocess:\n%s", p.stderr.String())
	}
}

// get fetches a URL, failing on transport errors or non-200s.
func httpGet(t *testing.T, c *http.Client, url string) []byte {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

var observedRE = regexp.MustCompile(`filecule_jobs_observed_total (\d+)`)

// readObserved reads the recovered job count from the metrics endpoint.
func readObserved(t *testing.T, c *http.Client, base string) int {
	t.Helper()
	m := observedRE.FindSubmatch(httpGet(t, c, base+"/metrics"))
	if m == nil {
		t.Fatal("metrics output missing filecule_jobs_observed_total")
	}
	n, err := strconv.Atoi(string(m[1]))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// postJob submits one observe; false means the request failed (the expected
// outcome when the killer lands mid-replay).
func postJob(c *http.Client, base string, files []trace.FileID) bool {
	body, err := json.Marshal(struct {
		Files []trace.FileID `json:"files"`
	}{files})
	if err != nil {
		return false
	}
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// comparePartition asserts the served partition is byte-identical to batch
// identification over the first n jobs.
func comparePartition(t *testing.T, c *http.Client, base string, tr *trace.Trace, n int, label string) {
	t.Helper()
	prefix := &trace.Trace{Files: tr.Files, Jobs: tr.Jobs[:n]}
	want, err := server.PartitionJSON(core.Identify(prefix), int64(n), &trace.Trace{Files: tr.Files})
	if err != nil {
		t.Fatal(err)
	}
	got := httpGet(t, c, base+"/v1/partition")
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("%s: partition after %d jobs differs from core.Identify (%d vs %d bytes)",
			label, n, len(got), len(want))
	}
}

// inspectPredicted runs the dump's read-only walk over the state directory
// a killed server left: whatever the kill tore is a crash artifact, never
// corruption, and the count the walk predicts — newest checkpoint plus the
// replayable jobs of its WAL chain — is what the restart must report.
func inspectPredicted(t *testing.T, stateDir string) int {
	t.Helper()
	rep, err := durable.Inspect(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) > 0 || len(rep.Checkpoints) == 0 {
		var dump bytes.Buffer
		rep.WriteTo(&dump, false)
		t.Fatalf("state directory of a killed server reads as corrupt:\n%s", dump.String())
	}
	newest := rep.Checkpoints[len(rep.Checkpoints)-1]
	n := newest.Observed
	for _, s := range rep.Segments {
		if s.Epoch >= newest.Epoch {
			n += s.Jobs
		}
	}
	return int(n)
}

func TestKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly kills a subprocess; skipped in -short mode")
	}
	bin := buildServeRace(t)

	tr, err := workload.Load("dzero,seed=7,scale=0.01")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.bin")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBin(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	stateDir := filepath.Join(dir, "state")

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("%d jobs, kill schedule seed %d", len(tr.Jobs), seed)

	client := &http.Client{Timeout: 30 * time.Second}
	lo, hi := 0, 0 // bounds on the durable observed count
	predicted := 0 // what the dump read from the directory the last kill left
	const cycles = 6
	for cycle := 0; cycle < cycles; cycle++ {
		p := startServe(t, bin, tracePath, stateDir)
		n := readObserved(t, client, p.base)
		if n < lo || n > hi || n != predicted {
			p.kill(t)
			t.Fatalf("cycle %d: recovered %d jobs, want between %d (acked) and %d (sent) and the %d the dump predicted\nstderr:\n%s",
				cycle, n, lo, hi, predicted, p.stderr.String())
		}
		comparePartition(t, client, p.base, tr, n, fmt.Sprintf("cycle %d recovery", cycle))
		next := n
		if next >= len(tr.Jobs) {
			p.kill(t)
			predicted = inspectPredicted(t, stateDir)
			break
		}

		acked := 0
		if cycle%2 == 0 {
			// Kill lands asynchronously mid-replay (possibly mid-request,
			// possibly during a background checkpoint). At most one request
			// is in flight, so the durable count is acked or acked+1.
			delay := time.Duration(rng.Intn(400)+25) * time.Millisecond
			timer := time.AfterFunc(delay, func() { p.cmd.Process.Kill() })
			for i := next; i < len(tr.Jobs); i++ {
				if !postJob(client, p.base, tr.Jobs[i].Files) {
					break
				}
				acked++
			}
			timer.Stop()
			lo, hi = next+acked, next+acked+1
		} else {
			// Replay a burst, checkpoint through the admin endpoint, then
			// kill immediately: recovery must come back from the newly
			// written checkpoint with nothing in flight.
			burst := rng.Intn(300) + 1
			for i := next; i < len(tr.Jobs) && i < next+burst; i++ {
				if !postJob(client, p.base, tr.Jobs[i].Files) {
					t.Fatalf("cycle %d: observe %d failed with no kill pending\nstderr:\n%s",
						cycle, i, p.stderr.String())
				}
				acked++
			}
			resp, err := client.Post(p.base+"/v1/admin/checkpoint", "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
			lo, hi = next+acked, next+acked
		}
		if hi > len(tr.Jobs) {
			hi = len(tr.Jobs)
		}
		p.kill(t)
		predicted = inspectPredicted(t, stateDir)
	}

	// Final pass: recover once more, finish the trace uninterrupted, and
	// check convergence to the uninterrupted-reference partition.
	p := startServe(t, bin, tracePath, stateDir)
	n := readObserved(t, client, p.base)
	if n < lo || n > hi || n != predicted {
		p.kill(t)
		t.Fatalf("final recovery: %d jobs, want between %d and %d and the %d the dump predicted", n, lo, hi, predicted)
	}
	comparePartition(t, client, p.base, tr, n, "final recovery")
	for i := n; i < len(tr.Jobs); i++ {
		if !postJob(client, p.base, tr.Jobs[i].Files) {
			t.Fatalf("final replay: observe %d failed\nstderr:\n%s", i, p.stderr.String())
		}
	}
	comparePartition(t, client, p.base, tr, len(tr.Jobs), "final")
	t.Logf("converged after %d kill-recover cycles: %d jobs, partition byte-identical to core.Identify", cycles, len(tr.Jobs))

	// Graceful shutdown must exit 0 and leave a state directory that
	// recovers to the identical full partition.
	p.cmd.Process.Signal(os.Interrupt)
	if err := p.cmd.Wait(); err != nil {
		p.waited = true
		t.Fatalf("graceful shutdown: %v\nstderr:\n%s", err, p.stderr.String())
	}
	p.waited = true
	p.kill(t) // race-detector check only

	p2 := startServe(t, bin, tracePath, stateDir)
	if got := readObserved(t, client, p2.base); got != len(tr.Jobs) {
		p2.kill(t)
		t.Fatalf("post-shutdown recovery: %d jobs, want %d", got, len(tr.Jobs))
	}
	comparePartition(t, client, p2.base, tr, len(tr.Jobs), "post-shutdown recovery")
	p2.kill(t)
}
