package aligned

import "sort"

// DetectAll finds multiple disjoint patterns in one matrix (§II-D: "this
// cluster can contain either single common item or multiple common items...
// techniques to separate out sub-clusters... can be used on top of our
// algorithm"). It runs Detect repeatedly, zeroing each found pattern's
// columns before the next round, until no further non-naturally-occurring
// pattern exists or maxPatterns is reached (0 means no limit).
//
// Column zeroing is done on a working copy; the input matrix is not
// modified. Patterns are returned in discovery order (heaviest first by
// construction of the greedy search).
func DetectAll(m *Matrix, cfg DetectorConfig, maxPatterns int) ([]Detection, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	work := NewMatrix(m.Rows(), m.Cols())
	for j := 0; j < m.Cols(); j++ {
		copy(work.col(j), m.col(j))
	}
	var out []Detection
	for maxPatterns == 0 || len(out) < maxPatterns {
		det, err := Detect(work, cfg)
		if err != nil {
			return nil, err
		}
		if !det.Found {
			break
		}
		out = append(out, det)
		// Remove the found pattern so the next round sees only what's left.
		for _, j := range det.Cols {
			clear(work.col(j))
		}
	}
	return out, nil
}

// SeparateClusters groups a detection's columns by their row support: two
// columns belong to the same cluster when their supports over the detected
// rows are identical. When one detection actually merged two different
// common contents seen by different router subsets, this splits them apart
// (the "maturely developed" sub-cluster separation the paper defers to).
func SeparateClusters(m *Matrix, det Detection) [][]int {
	if !det.Found || len(det.Cols) == 0 {
		return nil
	}
	rowSet := det.Rows
	byKey := make(map[string][]int)
	var keys []string
	for _, j := range det.Cols {
		key := make([]byte, len(rowSet))
		for i, r := range rowSet {
			if m.Test(r, j) {
				key[i] = 1
			}
		}
		k := string(key)
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], j)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		cols := byKey[k]
		sort.Ints(cols)
		out = append(out, cols)
	}
	// Largest cluster first.
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) > len(out[j]) })
	return out
}
