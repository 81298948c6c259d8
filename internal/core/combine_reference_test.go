package core

import (
	"math/rand"
	"sort"
	"testing"

	"filecule/internal/trace"
)

// combineReference is the map-keyed Combine the ID-order walk replaced, kept
// as its oracle.
func combineReference(a, b *Partition) *Partition {
	type key struct{ ia, ib int }
	groups := make(map[key][]trace.FileID)
	reqs := make(map[key]int)
	seen := make(map[trace.FileID]struct{})

	add := func(f trace.FileID, ia, ib int, r int) {
		if _, dup := seen[f]; dup {
			return
		}
		seen[f] = struct{}{}
		k := key{ia, ib}
		groups[k] = append(groups[k], f)
		reqs[k] = r
	}

	for i := range a.Filecules {
		for _, f := range a.Filecules[i].Files {
			ib := b.Of(f)
			r := a.Filecules[i].Requests
			if ib >= 0 {
				r += b.Filecules[ib].Requests
			}
			add(f, i, ib, r)
		}
	}
	for i := range b.Filecules {
		for _, f := range b.Filecules[i].Files {
			if a.Of(f) < 0 {
				add(f, -1, i, b.Filecules[i].Requests)
			}
		}
	}

	fcs := make([]Filecule, 0, len(groups))
	for k, files := range groups {
		sort.Slice(files, func(x, y int) bool { return files[x] < files[y] })
		fcs = append(fcs, Filecule{Files: files, Requests: reqs[k]})
	}
	return NewPartition(fcs)
}

// TestCombineMatchesReference holds Combine to the reference on views of
// catalogless traces whose IDs lie anywhere in the int32 space: overlapping
// views, each with files the other lacks; disjoint views; identical views;
// and an empty one.
func TestCombineMatchesReference(t *testing.T) {
	check := func(name string, a, b *Partition) {
		t.Helper()
		got := Combine(a, b)
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := combineReference(a, b); !got.Equal(want) {
			t.Fatalf("%s: Combine = %+v, reference = %+v", name, got.Filecules, want.Filecules)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := make([]trace.FileID, 1+rng.Intn(80))
		for i := range ids {
			ids[i] = trace.FileID(i)
			if seed%2 == 0 {
				ids[i] = trace.FileID(rng.Uint32())
			}
		}
		tr := catalogless(rng, ids, 1+rng.Intn(60))
		a := IdentifyJobs(tr, randomSubset(rng, len(tr.Jobs)))
		b := IdentifyJobs(tr, randomSubset(rng, len(tr.Jobs)))
		check("overlapping", a, b)
		check("overlapping, swapped", b, a)
		check("identical", a, a)
		check("empty", a, NewPartition(nil))

		// Disjoint: the second view's files moved past the first's.
		shifted := catalogless(rng, ids, 1+rng.Intn(60))
		for i := range shifted.Jobs {
			for k, f := range shifted.Jobs[i].Files {
				shifted.Jobs[i].Files[k] = f ^ -1<<31
			}
		}
		check("disjoint", a, Identify(shifted))
	}
}
