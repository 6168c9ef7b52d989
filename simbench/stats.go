package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

// dist is a sorted sample of one per-viewer or per-window quantity.
type dist []float64

func newDist(v []float64) dist {
	d := append(dist(nil), v...)
	sort.Float64s(d)
	return d
}

// median is the lower median (nearest rank), so a quantized sample reports
// a value it actually holds.
func (d dist) median() float64 {
	if len(d) == 0 {
		return 0
	}
	return d[(len(d)-1)/2]
}

// lowTail is the most extreme low value with at least tailBeyond samples
// below it; under tailBeyond+1 samples it is the minimum.
func (d dist) lowTail() float64 {
	if len(d) == 0 {
		return 0
	}
	if len(d) <= tailBeyond {
		return d[0]
	}
	return d[tailBeyond]
}

// highTail mirrors lowTail at the high end.
func (d dist) highTail() float64 {
	if len(d) == 0 {
		return 0
	}
	if len(d) <= tailBeyond {
		return d[len(d)-1]
	}
	return d[len(d)-1-tailBeyond]
}

// tailLabel states which percentile a tail is and over how many samples.
func (d dist) tailLabel() string {
	if len(d) <= tailBeyond {
		return fmt.Sprintf("worst of %d samples (fewer than %d beyond any percentile)", len(d), tailBeyond)
	}
	return fmt.Sprintf("p%.2f of %d samples, %d beyond", 100*float64(tailBeyond)/float64(len(d)), len(d), tailBeyond)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
