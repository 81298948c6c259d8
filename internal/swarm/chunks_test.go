package swarm

import (
	"fmt"
	"math"
	"testing"
	"time"

	"filecule/internal/sim"
)

// The chunk-level swarm simulator is the fluid model's oracle: a protocol
// with none of the fluid model's abstractions must order the same scenarios
// the same way.

// ChunkScenario parameterizes the chunk-level (protocol-ish) swarm
// simulator: the filecule is split into chunks, peers exchange chunks with
// rarest-first selection and bounded upload/download slots — the mechanism
// Section 5 describes ("BitTorrent users make available chunks of the file
// to other peers while downloading the missing chunks from other BitTorrent
// clients").
type ChunkScenario struct {
	Chunks     int
	ChunkBytes int64
	// SeedUpload / PeerUpload / PeerDownload are capacities in bytes/s.
	SeedUpload   float64
	PeerUpload   float64
	PeerDownload float64
	// UploadSlots bounds concurrent uploads per peer (BitTorrent's
	// unchoke slots); DownloadSlots bounds concurrent downloads per
	// leecher. Each transfer reserves one slot at both ends and runs at
	// min(upload, download) slot share.
	UploadSlots   int
	DownloadSlots int
	// SeedAfterDone keeps finished leechers uploading.
	SeedAfterDone bool
	Arrivals      []time.Duration
}

// Validate checks the scenario.
func (s *ChunkScenario) Validate() error {
	if s.Chunks < 1 || s.ChunkBytes <= 0 {
		return fmt.Errorf("swarm: need Chunks >= 1 and ChunkBytes > 0")
	}
	if s.SeedUpload <= 0 || s.PeerDownload <= 0 || s.PeerUpload < 0 {
		return fmt.Errorf("swarm: bad capacities")
	}
	if s.UploadSlots < 1 || s.DownloadSlots < 1 {
		return fmt.Errorf("swarm: need at least one upload and one download slot")
	}
	if len(s.Arrivals) == 0 {
		return fmt.Errorf("swarm: need at least one leecher")
	}
	for _, a := range s.Arrivals {
		if a < 0 {
			return fmt.Errorf("swarm: negative arrival %v", a)
		}
	}
	return nil
}

type chunkPeer struct {
	idx      int // -1 for the origin seed
	has      []bool
	nHave    int
	fetching []bool // chunks currently in flight to this peer
	upBusy   int
	downBusy int
	arrived  time.Time
	done     bool
	left     bool
	upload   float64
	download float64
}

// SimulateChunks runs the chunk-level swarm and returns per-leecher
// completion times (ordered by arrival) and the peak number of leechers
// downloading at once.
func SimulateChunks(s ChunkScenario) Result {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	epoch := time.Unix(0, 0).UTC()
	k := sim.New(epoch)

	seed := &chunkPeer{
		idx: -1, has: make([]bool, s.Chunks), nHave: s.Chunks,
		upload: s.SeedUpload, download: 0,
	}
	for i := range seed.has {
		seed.has[i] = true
	}
	peers := []*chunkPeer{seed}
	// rarity[c] counts copies of chunk c among present peers.
	rarity := make([]int, s.Chunks)
	for c := range rarity {
		rarity[c] = 1
	}

	completions := make([]time.Duration, len(s.Arrivals))
	downloading, peak := 0, 0
	arrivals := append([]time.Duration(nil), s.Arrivals...)
	// Sort ascending for stable indexing of results.
	for i := 1; i < len(arrivals); i++ {
		for j := i; j > 0 && arrivals[j] < arrivals[j-1]; j-- {
			arrivals[j], arrivals[j-1] = arrivals[j-1], arrivals[j]
		}
	}

	var schedule func()
	schedule = func() {
		// Greedy matching: leechers in arrival order, rarest chunk
		// first, uploader with the most free slots.
		for _, p := range peers {
			if p.idx < 0 || p.done || p.left {
				continue
			}
			for p.downBusy < s.DownloadSlots {
				c, up := pickTransfer(s, peers, rarity, p)
				if c < 0 {
					break
				}
				startTransfer(s, k, p, up, c, rarity, &completions, &downloading, &schedule)
			}
		}
	}

	for i, at := range arrivals {
		i := i
		k.At(epoch.Add(at), func() {
			p := &chunkPeer{
				idx: i, has: make([]bool, s.Chunks),
				fetching: make([]bool, s.Chunks),
				arrived:  k.Now(),
				upload:   s.PeerUpload, download: s.PeerDownload,
			}
			peers = append(peers, p)
			downloading++
			peak = max(peak, downloading)
			schedule()
		})
	}
	k.Run()
	return newResult(completions, peak)
}

// pickTransfer returns the rarest chunk p still needs that some peer with a
// free upload slot can provide, plus that uploader; (-1, nil) if none.
func pickTransfer(s ChunkScenario, peers []*chunkPeer, rarity []int, p *chunkPeer) (int, *chunkPeer) {
	bestChunk := -1
	for c := 0; c < s.Chunks; c++ {
		if p.has[c] || p.fetching[c] || rarity[c] == 0 {
			continue
		}
		if bestChunk >= 0 && rarity[c] >= rarity[bestChunk] {
			continue
		}
		if findUploader(s, peers, p, c) != nil {
			bestChunk = c
		}
	}
	if bestChunk < 0 {
		return -1, nil
	}
	return bestChunk, findUploader(s, peers, p, bestChunk)
}

// findUploader picks the holder of chunk c with the most free upload
// capacity (ties to the earliest peer, seed first).
func findUploader(s ChunkScenario, peers []*chunkPeer, p *chunkPeer, c int) *chunkPeer {
	var best *chunkPeer
	bestFree := -1.0
	for _, u := range peers {
		if u == p || u.left || !u.has[c] || u.upload <= 0 {
			continue
		}
		if u.upBusy >= s.UploadSlots {
			continue
		}
		free := u.upload / float64(s.UploadSlots) * float64(s.UploadSlots-u.upBusy)
		if free > bestFree {
			bestFree = free
			best = u
		}
	}
	return best
}

func startTransfer(s ChunkScenario, k *sim.Kernel, p, up *chunkPeer, c int,
	rarity []int, completions *[]time.Duration, downloading *int, schedule *func()) {
	p.fetching[c] = true
	p.downBusy++
	up.upBusy++
	rate := math.Min(up.upload/float64(s.UploadSlots), p.download/float64(s.DownloadSlots))
	dur := time.Duration(math.Ceil(float64(s.ChunkBytes) / rate * float64(time.Second)))
	k.After(dur, func() {
		p.fetching[c] = false
		p.downBusy--
		up.upBusy--
		if !p.has[c] {
			p.has[c] = true
			p.nHave++
			rarity[c]++
		}
		if p.nHave == s.Chunks && !p.done {
			p.done = true
			(*completions)[p.idx] = k.Now().Sub(p.arrived)
			*downloading--
			if !s.SeedAfterDone {
				p.left = true
				for ch := 0; ch < s.Chunks; ch++ {
					rarity[ch]--
				}
			}
		}
		(*schedule)()
	})
}

func baseChunkScenario() ChunkScenario {
	return ChunkScenario{
		Chunks:        10,
		ChunkBytes:    100,
		SeedUpload:    100,
		PeerUpload:    100,
		PeerDownload:  400,
		UploadSlots:   4,
		DownloadSlots: 4,
		Arrivals:      []time.Duration{0},
	}
}

func TestChunksSingleLeecherTime(t *testing.T) {
	s := baseChunkScenario()
	s.UploadSlots = 1
	s.DownloadSlots = 1
	r := SimulateChunks(s)
	// Sequential chunks at min(100, 400) B/s: 10 * 100/100 = 10s.
	if r.Mean.Round(time.Millisecond) != 10*time.Second {
		t.Errorf("single leecher = %v, want 10s", r.Mean)
	}
}

func TestChunksSlotsPipelineEqualAggregate(t *testing.T) {
	// With 4 slots the seed still has 100 B/s total; 4 parallel chunk
	// streams at 25 B/s each: same 10s wall clock for the whole file.
	s := baseChunkScenario()
	r := SimulateChunks(s)
	if r.Mean < 9*time.Second || r.Mean > 12*time.Second {
		t.Errorf("slotted single leecher = %v, want ~10s", r.Mean)
	}
}

func TestChunksFlashCrowdScalability(t *testing.T) {
	// The BitTorrent claim: as peers join a flash crowd, download time
	// stays roughly constant (peers add the capacity they consume).
	mean := func(n int) time.Duration {
		s := baseChunkScenario()
		s.Arrivals = make([]time.Duration, n)
		r := SimulateChunks(s)
		return r.Mean
	}
	small, large := mean(2), mean(16)
	if large > 3*small {
		t.Errorf("swarm does not scale: 2 peers %v vs 16 peers %v", small, large)
	}
}

func TestChunksPeersServeEachOther(t *testing.T) {
	// Seed alone: 100 B/s for 8 peers -> slow. With peer uploads the
	// aggregate grows, so swarm beats the no-peer-upload configuration.
	s := baseChunkScenario()
	s.Arrivals = make([]time.Duration, 8)
	with := SimulateChunks(s)
	s.PeerUpload = 0
	without := SimulateChunks(s)
	if with.Mean >= without.Mean {
		t.Errorf("peer uploads did not help: %v vs %v", with.Mean, without.Mean)
	}
}

func TestChunksSeedAfterDone(t *testing.T) {
	s := baseChunkScenario()
	s.Arrivals = []time.Duration{0, 0, 0, 5 * time.Second}
	selfish := SimulateChunks(s)
	s.SeedAfterDone = true
	altruistic := SimulateChunks(s)
	// The late arrival benefits from finished peers that stay.
	late := func(r Result) time.Duration { return r.Completions[3] }
	if late(altruistic) > late(selfish) {
		t.Errorf("lingering seeds slowed the late peer: %v vs %v",
			late(altruistic), late(selfish))
	}
}

func TestChunksEveryPeerCompletes(t *testing.T) {
	s := baseChunkScenario()
	s.Arrivals = []time.Duration{0, time.Second, 3 * time.Second, 10 * time.Second}
	r := SimulateChunks(s)
	for i, c := range r.Completions {
		if c <= 0 {
			t.Errorf("peer %d never completed (%v)", i, c)
		}
	}
}

func TestChunksAgreesWithFluidModel(t *testing.T) {
	// For a single peer, the chunk simulator and the fluid model must
	// agree (both reduce to FileBytes / min(seed up, peer down)).
	cs := baseChunkScenario()
	chunk := SimulateChunks(cs)
	fl := Scenario{
		FileBytes:    int64(cs.Chunks) * cs.ChunkBytes,
		SeedUpload:   cs.SeedUpload,
		PeerUpload:   cs.PeerUpload,
		PeerDownload: cs.PeerDownload,
		Eta:          1,
		Arrivals:     []time.Duration{0},
	}
	fluid := SimulateSwarm(fl)
	ratio := float64(chunk.Mean) / float64(fluid.Mean)
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("chunk (%v) vs fluid (%v): ratio %v", chunk.Mean, fluid.Mean, ratio)
	}
}

func TestChunkScenarioValidation(t *testing.T) {
	bad := []func(*ChunkScenario){
		func(s *ChunkScenario) { s.Chunks = 0 },
		func(s *ChunkScenario) { s.ChunkBytes = 0 },
		func(s *ChunkScenario) { s.SeedUpload = 0 },
		func(s *ChunkScenario) { s.PeerDownload = 0 },
		func(s *ChunkScenario) { s.PeerUpload = -1 },
		func(s *ChunkScenario) { s.Arrivals = nil },
		func(s *ChunkScenario) { s.Arrivals = []time.Duration{-1} },
		func(s *ChunkScenario) { s.UploadSlots = 0 },
	}
	for i, mutate := range bad {
		s := baseChunkScenario()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestChunksDeterministic(t *testing.T) {
	s := baseChunkScenario()
	s.Arrivals = []time.Duration{0, 0, time.Second, 2 * time.Second}
	a := SimulateChunks(s)
	b := SimulateChunks(s)
	for i := range a.Completions {
		if a.Completions[i] != b.Completions[i] {
			t.Fatalf("run differs at peer %d: %v vs %v", i, a.Completions[i], b.Completions[i])
		}
	}
}

// oraclePair returns a fluid scenario and a chunk scenario of the same
// filecule and capacities. A lone leecher takes 8 s in both: 800 bytes at
// the seed's 100 B/s, or four rounds of four 100-byte chunks at 25 B/s a
// slot.
func oraclePair(arrivals []time.Duration) (Scenario, ChunkScenario) {
	cs := baseChunkScenario()
	cs.Chunks = 8
	cs.Arrivals = arrivals
	fl := Scenario{
		FileBytes:    int64(cs.Chunks) * cs.ChunkBytes,
		SeedUpload:   cs.SeedUpload,
		PeerUpload:   cs.PeerUpload,
		PeerDownload: cs.PeerDownload,
		Eta:          1,
		Arrivals:     arrivals,
	}
	return fl, cs
}

// TestSpacedArrivalsSwarmEqualsClientServer is Section 5's observed regime:
// when arrivals are at least one transfer time apart, no two downloads
// overlap, so the swarm's mean is the client-server mean. The chunk
// simulator, with peers that do serve each other, agrees.
func TestSpacedArrivalsSwarmEqualsClientServer(t *testing.T) {
	const transfer = 8 * time.Second
	for _, gap := range []time.Duration{transfer, transfer * 3 / 2, time.Hour} {
		arrivals := []time.Duration{0, gap, 2 * gap, 3 * gap}
		fl, cs := oraclePair(arrivals)
		sw, direct := SimulateSwarm(fl), SimulateClientServer(fl)
		if sw.Mean != direct.Mean || direct.Mean.Round(time.Millisecond) != transfer {
			t.Errorf("gap %v: fluid swarm %v, client-server %v, want both %v", gap, sw.Mean, direct.Mean, transfer)
		}
		if sw.PeakDownloads != 1 || direct.PeakDownloads != 1 {
			t.Errorf("gap %v: fluid peak downloads %d (swarm), %d (client-server), want 1", gap, sw.PeakDownloads, direct.PeakDownloads)
		}
		if gap == transfer {
			// The chunk kernel runs an arrival before a completion at
			// the same instant, so the newcomer would meet the finishing
			// peer; the fluid model alone pins the boundary.
			continue
		}
		chunk := SimulateChunks(cs)
		if chunk.Mean.Round(time.Millisecond) != direct.Mean.Round(time.Millisecond) || chunk.PeakDownloads != 1 {
			t.Errorf("gap %v: chunk oracle mean %v peak %d, want the client-server %v and 1", gap, chunk.Mean, chunk.PeakDownloads, direct.Mean)
		}
	}
}

// TestFlashCrowdSwarmBeatsClientServer is the counterfactual: n leechers
// arriving at once all download together, and swarming beats the origin
// alone in the fluid model and in the chunk simulator.
func TestFlashCrowdSwarmBeatsClientServer(t *testing.T) {
	for _, n := range []int{2, 4, 16} {
		fl, cs := oraclePair(make([]time.Duration, n))
		sw, direct := SimulateSwarm(fl), SimulateClientServer(fl)
		chunk := SimulateChunks(cs)
		if sw.Mean >= direct.Mean {
			t.Errorf("%d peers: fluid swarm %v not faster than client-server %v", n, sw.Mean, direct.Mean)
		}
		if chunk.Mean >= direct.Mean {
			t.Errorf("%d peers: chunk oracle %v not faster than client-server %v", n, chunk.Mean, direct.Mean)
		}
		for name, peak := range map[string]int{"swarm": sw.PeakDownloads, "client-server": direct.PeakDownloads, "chunk": chunk.PeakDownloads} {
			if peak != n {
				t.Errorf("%d peers: %s peak downloads %d, want %d", n, name, peak, n)
			}
		}
	}
}
