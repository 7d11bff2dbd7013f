package obs

// MergeSnapshots combines registry snapshots from independent sources (e.g.
// a batch's registry and its per-instance profilers) into one:
// counters sum, gauges take the maximum, histograms merge bucket-wise with
// summary percentiles re-estimated from the merged buckets, and matrices add
// element-wise (zero-padded to the larger shape). Counter addition, gauge
// max and padded matrix addition all commute, and the percentile re-estimate
// depends only on the merged buckets, so the result is independent of
// argument order and grouping — MergeSnapshots(a, b, c) equals
// MergeSnapshots(MergeSnapshots(a, b), c). Snapshots with nil maps (empty
// shards) merge as identity elements.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]int64),
		Hists:    make(map[string]HistSnapshot),
		Matrices: make(map[string]MatrixSnapshot),
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			if v > out.Gauges[k] {
				out.Gauges[k] = v
			}
		}
		for k, h := range s.Hists {
			if prev, ok := out.Hists[k]; ok {
				out.Hists[k] = MergeHistSnapshots(prev, h)
			} else {
				out.Hists[k] = h
			}
		}
		for k, m := range s.Matrices {
			if prev, ok := out.Matrices[k]; ok {
				out.Matrices[k] = MergeMatrixSnapshots(prev, m)
			} else {
				out.Matrices[k] = m
			}
		}
	}
	return out
}

// MergeHistSnapshots combines two snapshots of same-shaped histograms
// (identical bucket bounds — true for any two registries, whose histograms
// are fixed per HistID). An empty side returns the other unchanged. On a
// bucket-shape mismatch the buckets are dropped and only the exact aggregates
// (count/sum/min/max/mean) survive; percentiles then degrade to the observed
// range endpoints.
func MergeHistSnapshots(a, b HistSnapshot) HistSnapshot {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	m := HistSnapshot{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   a.Min,
		Max:   a.Max,
	}
	if b.Min < m.Min {
		m.Min = b.Min
	}
	if b.Max > m.Max {
		m.Max = b.Max
	}
	m.Mean = float64(m.Sum) / float64(m.Count)
	if len(a.Buckets) == len(b.Buckets) {
		m.Buckets = make([]Bucket, len(a.Buckets))
		for i := range a.Buckets {
			if a.Buckets[i].Le != b.Buckets[i].Le {
				m.Buckets = nil
				break
			}
			m.Buckets[i] = Bucket{Le: a.Buckets[i].Le, Count: a.Buckets[i].Count + b.Buckets[i].Count}
		}
	}
	if m.Buckets != nil {
		m.P50 = percentileFromBuckets(m.Buckets, m.Count, m.Min, m.Max, 50)
		m.P90 = percentileFromBuckets(m.Buckets, m.Count, m.Min, m.Max, 90)
		m.P99 = percentileFromBuckets(m.Buckets, m.Count, m.Min, m.Max, 99)
		m.P999 = percentileFromBuckets(m.Buckets, m.Count, m.Min, m.Max, 99.9)
	} else {
		m.P50, m.P90, m.P99 = float64(m.Min), float64(m.Max), float64(m.Max)
		m.P999 = float64(m.Max)
	}
	return m
}
