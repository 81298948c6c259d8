package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"filecule/internal/trace"
)

// The generators promise that the same config yields the same trace, and every
// recorded experiment number rests on it. These hashes of the filecule-bin/v1
// encoding were computed at commit 6a62a06 (before the generator stopped
// formatting names with Sprintf, sizing by doubling and sorting by reflection):
// a change that moves one RNG draw, one file ID or one job across a tie fails
// here. Regenerate them only for a deliberate workload change, and say so.
var generatorGoldens = []struct {
	name string
	gen  func() (*trace.Trace, error)
	sha  string
	slow bool
}{
	{name: "dzero/seed=1/scale=0.02", sha: "eb737772ad85626cc6f7ee6441e802864a3d0c51d1516cb99f7998398520261f",
		gen: func() (*trace.Trace, error) { return Generate(DZero(1, 0.02)) }},
	{name: "dzero/seed=7/scale=0.05", sha: "8b7464bfe0f91de6e5b1c1fe232d697380387ace18441c6a2016c181957e6672",
		gen: func() (*trace.Trace, error) { return Generate(DZero(7, 0.05)) }},
	{name: "dzero/seed=42/scale=0.1", sha: "e60f96330c38d97e957eb52e35149d369d58f8f2a7a5eea7900c921067941af1",
		gen: func() (*trace.Trace, error) { return Generate(DZero(42, 0.1)) }},
	{name: "dzero/seed=7/scale=0.5", sha: "fa63a6a852caffd76dbfcd54474d6e7e2a47995c8294f905b5e48e633ee2bc35", slow: true,
		gen: func() (*trace.Trace, error) { return Generate(DZero(7, 0.5)) }},
	{name: "dzero-nohot/seed=5/scale=0.01", sha: "48aef273fe6bf51f9198bded31021f94a6f786ad1e56933448abc3226613fff6",
		gen: func() (*trace.Trace, error) {
			cfg := DZero(5, 0.01)
			cfg.PlantHotFilecule = false
			cfg.ShuffleWithinDataset = false
			return Generate(cfg)
		}},
	{name: "xrootd/seed=3/scale=0.05", sha: "5b1c8f76204db07b0ca84b3110210ef9190e1d8644832c065483330a1be56e44",
		gen: func() (*trace.Trace, error) { return GenerateXRootD(XRootDDefaults(3, 0.05)) }},
	{name: "dzero-burst/seed=1/scale=0.02", sha: "7311a9f5095c105cee2036a3021a292036bfb88824e1d895261c11a5c71f5852",
		gen: func() (*trace.Trace, error) {
			src, err := NewSource(DZero(1, 0.02))
			if err != nil {
				return nil, err
			}
			sh := Shape{Mode: ShapeBurst, StartRPS: 5, TargetRPS: 50, Slot: 30 * time.Second}
			shaped, err := Reshape(src, sh, time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC))
			if err != nil {
				return nil, err
			}
			return materializeSorted(shaped)
		}},
	// The streaming generator emits in generation order; sorted by start it
	// must be the very trace Generate returns (same hash as the second row).
	{name: "dzero-source/seed=7/scale=0.05", sha: "8b7464bfe0f91de6e5b1c1fe232d697380387ace18441c6a2016c181957e6672",
		gen: func() (*trace.Trace, error) {
			src, err := NewSource(DZero(7, 0.05))
			if err != nil {
				return nil, err
			}
			return materializeSorted(src)
		}},
}

// materializeSorted drains and closes src into a start-sorted trace, the way
// the workload registry loads a stream.
func materializeSorted(src trace.Source) (*trace.Trace, error) {
	defer src.Close()
	t, err := trace.Materialize(src)
	if err != nil {
		return nil, err
	}
	t.SortJobsByStart()
	return t, nil
}

func TestGeneratorGoldens(t *testing.T) {
	for _, g := range generatorGoldens {
		t.Run(g.name, func(t *testing.T) {
			if g.slow && testing.Short() {
				t.Skip("half-scale trace: skipped with -short")
			}
			tr, err := g.gen()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := trace.WriteBin(h, tr); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != g.sha {
				t.Errorf("sha256(WriteBin) = %s, want %s", got, g.sha)
			}
		})
	}
}
