//go:build slow

// Federated kill-and-recover harness: two filecule-serve processes, each
// holding half the trace, cross-peered over their wire listeners with strict
// WAL commits.
// One site is SIGKILLed mid-replay; while it is down the survivor must
// report degraded readiness (503) yet keep serving. The killed site then
// restarts on the same port and state directory, recovers its durable
// observe count (the one durable.Inspect read off the killed site's directory,
// which must show no corruption), finishes its stream, and both sites must
// reconverge to a
// merged partition byte-identical to single-node batch identification over
// the whole trace. Run via `make kill-recover` (go test -race -tags slow
// -run 'TestKillAndRecover|TestFedKillAndRecover' .).
package filecule_test

import (
	"bytes"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/server"
	"filecule/internal/trace"
	"filecule/internal/workload"
)

// reserveAddr grabs a loopback port and releases it, so a subprocess can
// be pointed at a concrete address its peer knows in advance.
func reserveAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// startServeFed launches one federated site on fixed HTTP and wire
// addresses, peered with the wire address of the other site.
func startServeFed(t *testing.T, bin, tracePath, stateDir, addr, wireAddr, site, peer string) *serveProc {
	t.Helper()
	return startServeArgs(t, bin,
		"-addr", addr, "-wire-addr", wireAddr, "-workload", "file,path="+tracePath, "-state-dir", stateDir,
		"-wal-sync", "commit", "-checkpoint-interval", "50ms", "-pprof=false",
		"-site", site, "-peers", peer, "-exchange-interval", "25ms")
}

// readyCode fetches /readyz and returns the status code (0 on transport
// failure, e.g. while the process is down).
func readyCode(c *http.Client, base string) int {
	resp, err := c.Get(base + "/readyz")
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestFedKillAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills federated subprocesses; skipped in -short mode")
	}
	bin := buildServeRace(t)

	tr, err := workload.Load("dzero,seed=9,scale=0.01")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := writeTraceBin(t, dir, tr)

	// Deal job i to site i%2; the differential target is single-node
	// identification over the whole trace.
	var streams [2][]trace.Job
	for i, j := range tr.Jobs {
		streams[i%2] = append(streams[i%2], j)
	}
	want, err := server.PartitionJSON(core.Identify(tr), int64(len(tr.Jobs)), &trace.Trace{Files: tr.Files})
	if err != nil {
		t.Fatal(err)
	}

	addrA, addrB := reserveAddr(t), reserveAddr(t)
	wireA, wireB := reserveAddr(t), reserveAddr(t)
	stateA, stateB := dir+"/state-a", dir+"/state-b"
	pA := startServeFed(t, bin, tracePath, stateA, addrA, wireA, "site-a", wireB)
	defer pA.kill(t)
	pB := startServeFed(t, bin, tracePath, stateB, addrB, wireB, "site-b", wireA)

	client := &http.Client{Timeout: 30 * time.Second}
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("%d jobs (%d + %d), kill schedule seed %d", len(tr.Jobs), len(streams[0]), len(streams[1]), seed)

	// Site A replays its whole stream; site B is killed asynchronously
	// mid-replay, so its durable count is acked or acked+1.
	for i, j := range streams[0] {
		if !postJob(client, pA.base, j.Files) {
			t.Fatalf("site-a observe %d failed\nstderr:\n%s", i, pA.stderr.String())
		}
	}
	delay := time.Duration(rng.Intn(300)+25) * time.Millisecond
	timer := time.AfterFunc(delay, func() { pB.cmd.Process.Kill() })
	acked := 0
	for _, j := range streams[1] {
		if !postJob(client, pB.base, j.Files) {
			break
		}
		acked++
	}
	timer.Stop()
	pB.cmd.Process.Kill() // in case the replay outran the timer
	pB.kill(t)

	// With its peer dead, the survivor must degrade readiness (503) while
	// staying alive and answering queries.
	deadline := time.Now().Add(30 * time.Second)
	for readyCode(client, pA.base) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatalf("site-a never reported degraded readiness with its peer down")
		}
		time.Sleep(50 * time.Millisecond)
	}
	httpGet(t, client, pA.base+"/v1/partition") // still serving
	if !bytes.Contains(httpGet(t, client, pA.base+"/metrics"), []byte("filecule_fed_degraded 1")) {
		t.Fatal("site-a metrics do not show filecule_fed_degraded 1 while peer is down")
	}

	// Site B rejoins from its durable state on the same ports: the recovered
	// count must cover every acknowledged observe, and the remainder of its
	// stream resumes from exactly there.
	predicted := inspectPredicted(t, stateB)
	pB = startServeFed(t, bin, tracePath, stateB, addrB, wireB, "site-b", wireA)
	defer pB.kill(t)
	n := readObserved(t, client, pB.base)
	if n < acked || n > acked+1 || n != predicted {
		t.Fatalf("site-b recovered %d jobs, want between %d (acked) and %d and the %d the dump predicted\nstderr:\n%s",
			n, acked, acked+1, predicted, pB.stderr.String())
	}
	for i := n; i < len(streams[1]); i++ {
		if !postJob(client, pB.base, streams[1][i].Files) {
			t.Fatalf("site-b resumed observe %d failed\nstderr:\n%s", i, pB.stderr.String())
		}
	}

	// Both merged partitions must reconverge to the single-node reference,
	// byte for byte (breaker cooldowns bound how fast, hence the long poll).
	deadline = time.Now().Add(60 * time.Second)
	for {
		gotA := bytes.TrimSpace(httpGet(t, client, pA.base+"/v1/fed/partition"))
		gotB := bytes.TrimSpace(httpGet(t, client, pB.base+"/v1/fed/partition"))
		if bytes.Equal(gotA, want) && bytes.Equal(gotB, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no reconvergence after rejoin: %d/%d bytes, want %d\nsite-b stderr:\n%s",
				len(gotA), len(gotB), len(want), pB.stderr.String())
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Logf("reconverged after SIGKILL + rejoin: merged partitions byte-identical to core.Identify over %d jobs", len(tr.Jobs))

	// And with both sides exchanging again, readiness must return to ok.
	deadline = time.Now().Add(60 * time.Second)
	for readyCode(client, pA.base) != http.StatusOK || readyCode(client, pB.base) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatalf("readiness stuck degraded after reconvergence: a=%d b=%d",
				readyCode(client, pA.base), readyCode(client, pB.base))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// writeTraceBin serializes tr into dir in the binary trace format.
func writeTraceBin(t *testing.T, dir string, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(dir, "t.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBin(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
