package cache

import (
	"container/heap"

	"filecule/internal/trace"
)

// SimulateOPT replays the request stream under Belady's offline-optimal
// replacement at the given granularity: on a miss with a full cache it
// evicts the resident unit whose next use is farthest in the future (or
// never). It is the independently coded oracle that Sim driven by OPTPolicy
// — the OPT that ships — is held to (TestOPTPolicyMatchesSimulateOPT), and
// the lower bound online policies are compared against in the property tests.
//
// Like the online simulator, a unit larger than the whole cache is bypassed
// by caching only the requested file as a degenerate unit. Bypassed units
// are keyed per file, and since a degenerate unit is only ever hit by
// requests for that same file — which map back to the same oversized unit
// and therefore the same degenerate key — the per-unit next-use index is
// exact for them too.
func SimulateOPT(t *trace.Trace, g Granularity, capacity int64, reqs []trace.Request) Metrics {
	if capacity <= 0 {
		panic("cache: capacity must be > 0")
	}
	nextUse := NextUse(g, reqs)

	resident := make(map[UnitID]*optEntry)
	var pq optHeap
	var used int64
	var m Metrics

	for i, r := range reqs {
		fileSize := t.Files[r.File].Size
		m.Requests++
		m.BytesRequested += fileSize

		unit := g.UnitOf(r.File)
		key := unit
		size := g.SizeOf(unit)
		bypass := size > capacity
		if bypass {
			key = degenerate(r.File)
			size = fileSize
		}
		if e, ok := resident[key]; ok {
			m.Hits++
			e.next = nextUse[i]
			heap.Fix(&pq, e.index)
			continue
		}
		m.Misses++
		m.BytesMissed += fileSize
		if bypass {
			m.Bypasses++
			if size > capacity {
				continue // single file larger than the whole cache
			}
		}
		for used+size > capacity {
			v := heap.Pop(&pq).(*optEntry)
			delete(resident, v.unit)
			used -= v.size
			m.Evictions++
			m.BytesEvicted += v.size
		}
		e := &optEntry{unit: key, size: size, next: nextUse[i]}
		resident[key] = e
		heap.Push(&pq, e)
		used += size
		m.BytesLoaded += size
	}
	return m
}
