package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sourcecurrents/internal/model"
)

// worldSpec sizes one generated world. Every quantity that sets the
// serving cost (source count, object count, the coverage curve, the copier
// count) is a deterministic function of the spec; the seed only decides
// which source sits at which rank, which objects each source covers and
// which values it claims. Worlds from different seeds therefore cost the
// same to build and to answer, which keeps run-to-run spread small.
type worldSpec struct {
	Sources int
	Objects int
	// Copiers of the Sources plant a copy relation on an independent
	// master.
	Copiers int
	// FalseValues is the number of distinct wrong values per object.
	FalseValues int
	// CoverageMax and CoverageMin bound the heavy-tailed per-source
	// coverage curve CoverageMax·(rank+1)^-CoverageTail.
	CoverageMax, CoverageMin, CoverageTail float64
}

// world is one generated claim set plus its ground truth. The serving
// stack only ever sees claims; truth and copiers stay with the benchmark.
type world struct {
	name    string
	claims  []model.Claim
	objects []model.ObjectID
	sources []model.SourceID
	truth   map[model.ObjectID]string
	copiers map[model.SourcePair]bool
	// value is the latest claimed value per (source, object), for
	// generating re-publishing append batches.
	value map[model.SourceID]map[model.ObjectID]string
	// accuracy is each source's planted accuracy.
	accuracy map[model.SourceID]float64
}

const truthValue = "true"

func falseValue(i int) string { return fmt.Sprintf("false%d", i) }

// genWorld builds a world from spec under rng. Independent source r (in
// rank order) covers CoverageMax·(r+1)^-CoverageTail of the objects, with
// planted accuracy spread evenly over [0.45, 0.85]. Copier c takes the
// independent source of rank c mod 10 as its master, covers each of
// the master's objects with probability 0.8 and copies the master's value
// with probability 0.8, answering independently at accuracy 0.6 otherwise.
func genWorld(name string, spec worldSpec, rng *rand.Rand) *world {
	w := &world{
		name:     name,
		truth:    make(map[model.ObjectID]string, spec.Objects),
		copiers:  map[model.SourcePair]bool{},
		value:    map[model.SourceID]map[model.ObjectID]string{},
		accuracy: map[model.SourceID]float64{},
	}
	for i := 0; i < spec.Objects; i++ {
		o := model.Obj(fmt.Sprintf("e%05d", i), "v")
		w.objects = append(w.objects, o)
		w.truth[o] = truthValue
	}
	// Source ids are a random permutation, so id order carries no hint of
	// rank, accuracy or copier status.
	ids := rng.Perm(spec.Sources)
	nInd := spec.Sources - spec.Copiers
	// Accuracy by rank follows a golden-ratio sequence over [0.45, 0.85]:
	// evenly spread, unrelated to coverage, and the same for every seed.
	accs := make([]float64, nInd)
	for r := range accs {
		_, frac := math.Modf(float64(r) * 0.6180339887498949)
		accs[r] = 0.45 + 0.4*frac
	}

	claim := func(s model.SourceID, o model.ObjectID, v string) {
		w.claims = append(w.claims, model.NewClaim(s, o, v))
		if w.value[s] == nil {
			w.value[s] = map[model.ObjectID]string{}
		}
		w.value[s][o] = v
	}
	answer := func(acc float64) string {
		if rng.Float64() < acc {
			return truthValue
		}
		return falseValue(rng.Intn(spec.FalseValues))
	}
	src := func(i int) model.SourceID { return model.SourceID(fmt.Sprintf("s%04d", ids[i])) }

	covered := make([][]model.ObjectID, nInd)
	for r := 0; r < nInd; r++ {
		s := src(r)
		w.sources = append(w.sources, s)
		w.accuracy[s] = accs[r]
		cov := math.Max(spec.CoverageMin, spec.CoverageMax*math.Pow(float64(r+1), -spec.CoverageTail))
		n := max(2, int(math.Round(cov*float64(spec.Objects))))
		for _, oi := range rng.Perm(spec.Objects)[:n] {
			o := w.objects[oi]
			covered[r] = append(covered[r], o)
			claim(s, o, answer(accs[r]))
		}
	}
	// Copiers of one master share its values, so they are dependent on
	// each other as well as on the master: both kinds of pair are planted.
	copiersOf := map[int][]model.SourceID{}
	for c := 0; c < spec.Copiers; c++ {
		s := src(nInd + c)
		// Masters are the best-covered sources, in turn, so every seed
		// plants the same copier coverage.
		m := c % min(10, nInd)
		master := src(m)
		w.sources = append(w.sources, s)
		w.accuracy[s] = 0.6
		w.copiers[model.NewSourcePair(s, master)] = true
		for _, peer := range copiersOf[m] {
			w.copiers[model.NewSourcePair(s, peer)] = true
		}
		copiersOf[m] = append(copiersOf[m], s)
		for _, o := range covered[m] {
			if rng.Float64() >= 0.8 {
				continue
			}
			if rng.Float64() < 0.8 {
				claim(s, o, w.value[master][o])
			} else {
				claim(s, o, answer(0.6))
			}
		}
	}
	sort.Slice(w.sources, func(i, j int) bool { return w.sources[i] < w.sources[j] })
	return w
}

// coverageStats summarises claims per source: the recorded shape of the
// heavy tail.
type coverageStats struct {
	Claims          int     `json:"claims"`
	Sources         int     `json:"sources"`
	Objects         int     `json:"objects"`
	Copiers         int     `json:"copier_pairs"`
	PerSourceMin    int     `json:"per_source_min"`
	PerSourceMedian int     `json:"per_source_median"`
	PerSourceMax    int     `json:"per_source_max"`
	PerSourceMean   float64 `json:"per_source_mean"`
}

func (w *world) stats() coverageStats {
	per := make([]int, 0, len(w.value))
	for _, s := range w.sources {
		per = append(per, len(w.value[s]))
	}
	sort.Ints(per)
	return coverageStats{
		Claims:          len(w.claims),
		Sources:         len(w.sources),
		Objects:         len(w.objects),
		Copiers:         len(w.copiers),
		PerSourceMin:    per[0],
		PerSourceMedian: per[len(per)/2],
		PerSourceMax:    per[len(per)-1],
		PerSourceMean:   float64(len(w.claims)) / float64(len(per)),
	}
}

// randomQuery draws width distinct objects.
func (w *world) randomQuery(rng *rand.Rand, width int) []model.ObjectID {
	q := make([]model.ObjectID, width)
	for i, oi := range rng.Perm(len(w.objects))[:width] {
		q[i] = w.objects[oi]
	}
	return q
}

// appendBatches generates a live feed of n batches: each batch has a few
// existing sources re-publish (same value) or change (fresh draw at the
// source's planted accuracy) claims on objects they already cover, and
// every newSourceEvery-th batch also introduces a new source with a small
// catalogue. Batches chain: a change in batch i is what batch i+1 may
// re-publish.
func (w *world) appendBatches(rng *rand.Rand, n, perBatch, newSourceEvery, falseValues int) [][]model.Claim {
	latest := make(map[model.SourceID]map[model.ObjectID]string, len(w.value))
	for s, vals := range w.value {
		m := make(map[model.ObjectID]string, len(vals))
		for o, v := range vals {
			m[o] = v
		}
		latest[s] = m
	}
	sources := append([]model.SourceID(nil), w.sources...)
	objs := make(map[model.SourceID][]model.ObjectID, len(sources))
	for _, s := range sources {
		for _, o := range w.objects {
			if _, ok := latest[s][o]; ok {
				objs[s] = append(objs[s], o)
			}
		}
	}
	acc := func(s model.SourceID) float64 {
		if a, ok := w.accuracy[s]; ok {
			return a
		}
		return 0.7
	}
	draw := func(a float64) string {
		if rng.Float64() < a {
			return truthValue
		}
		return falseValue(rng.Intn(falseValues))
	}
	batches := make([][]model.Claim, n)
	for b := 0; b < n; b++ {
		var batch []model.Claim
		for len(batch) < perBatch {
			s := sources[rng.Intn(len(sources))]
			os := objs[s]
			o := os[rng.Intn(len(os))]
			v := latest[s][o]
			if rng.Float64() < 0.5 {
				v = draw(acc(s))
			}
			latest[s][o] = v
			batch = append(batch, model.NewClaim(s, o, v))
		}
		if newSourceEvery > 0 && b%newSourceEvery == newSourceEvery-1 {
			s := model.SourceID(fmt.Sprintf("n%04d", b))
			latest[s] = map[model.ObjectID]string{}
			for _, oi := range rng.Perm(len(w.objects))[:max(2, len(w.objects)/20)] {
				o := w.objects[oi]
				v := draw(0.7)
				latest[s][o] = v
				objs[s] = append(objs[s], o)
				batch = append(batch, model.NewClaim(s, o, v))
			}
			sources = append(sources, s)
		}
		batches[b] = batch
	}
	return batches
}
