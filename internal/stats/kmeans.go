package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrKMeans is returned when clustering cannot be performed, e.g. when k
// exceeds the number of distinct samples.
var ErrKMeans = errors.New("stats: k-means: k exceeds number of samples")

// Clustering is the result of one-dimensional k-means clustering. Clusters
// are ordered by ascending centroid, which lets callers pick the "low",
// "medium", and "high" frequency clusters of Figure 6 by index.
type Clustering struct {
	// Centroids holds the final cluster centers in ascending order.
	Centroids []float64
	// Assignments maps each input index to its cluster index.
	Assignments []int
	// Sizes holds the number of samples in each cluster.
	Sizes []int
	// Inertia is the sum of squared distances of samples to their centroid.
	Inertia float64
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
}

// Members returns the input indices assigned to cluster c, in input order.
func (cl *Clustering) Members(c int) []int {
	var out []int
	for i, a := range cl.Assignments {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

// KMeans1D clusters the one-dimensional samples xs into k clusters using
// Lloyd's algorithm with deterministic quantile-based initialization, the
// method the paper uses to partition 2000 Quartz nodes into low/medium/high
// achieved-frequency groups. The deterministic initialization makes the
// clustering reproducible without a seed.
func KMeans1D(xs []float64, k int) (*Clustering, error) {
	if k <= 0 || len(xs) < k {
		return nil, ErrKMeans
	}
	// One ascending copy serves the distinct-count scan and every quantile
	// query.
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if countDistinctSorted(sorted) < k {
		return nil, ErrKMeans
	}

	// Initialize centroids at evenly spaced quantiles of the data.
	centroids := make([]float64, k)
	for i := range centroids {
		p := (float64(i) + 0.5) / float64(k) * 100
		centroids[i] = percentileSorted(sorted, p)
	}
	dedupeCentroids(centroids, xs)

	assign := make([]int, len(xs))
	sums := make([]float64, k)
	counts := make([]int, k)
	const maxIter = 200
	iter := 0
	for ; iter < maxIter; iter++ {
		changed := false
		// Assignment step.
		for i, x := range xs {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centroids {
				d := (x - ctr) * (x - ctr)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if iter > 0 && !changed {
			break
		}
		// Update step.
		for c := range sums {
			sums[c], counts[c] = 0, 0
		}
		for i, x := range xs {
			sums[assign[i]] += x
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c] / float64(counts[c])
			}
		}
	}

	cl := &Clustering{
		Centroids:   centroids,
		Assignments: assign,
		Sizes:       make([]int, k),
		Iterations:  iter,
	}
	cl.sortByCentroid()
	for i, x := range xs {
		c := cl.Assignments[i]
		d := x - cl.Centroids[c]
		cl.Inertia += d * d
		cl.Sizes[c]++
	}
	return cl, nil
}

// sortByCentroid reorders clusters so centroids ascend, remapping
// assignments accordingly.
func (cl *Clustering) sortByCentroid() {
	k := len(cl.Centroids)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return cl.Centroids[order[a]] < cl.Centroids[order[b]]
	})
	remap := make([]int, k)
	newCentroids := make([]float64, k)
	for newIdx, oldIdx := range order {
		remap[oldIdx] = newIdx
		newCentroids[newIdx] = cl.Centroids[oldIdx]
	}
	cl.Centroids = newCentroids
	for i, a := range cl.Assignments {
		cl.Assignments[i] = remap[a]
	}
}

// countDistinctSorted counts distinct values in an ascending slice by an
// adjacent-pair scan, replacing the map-based count that allocated a bucket
// per sample.
func countDistinctSorted(sorted []float64) int {
	if len(sorted) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			n++
		}
	}
	return n
}

// dedupeCentroids nudges duplicate initial centroids apart so that Lloyd's
// algorithm does not collapse clusters when quantiles coincide.
func dedupeCentroids(centroids, xs []float64) {
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	span := mx - mn
	if span == 0 {
		span = 1
	}
	for i := 1; i < len(centroids); i++ {
		if centroids[i] <= centroids[i-1] {
			centroids[i] = centroids[i-1] + span*1e-6
		}
	}
}
