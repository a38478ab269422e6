// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (Section 8): Table 6 (performance
// comparison of BIDIJ, IS-Label, PLL and HopDb), Table 7 (hitting-set
// statistics), Table 8 (doubling vs stepping vs hybrid), Figure 8 (label
// coverage by top-ranked vertices), Figure 9 (synthetic scalability), and
// Figure 10 (per-iteration growth and pruning).
//
// The paper's 27 real datasets are replaced by seeded synthetic proxies.
// The originals run to billions of edges and are not redistributable,
// and the harness must run on one machine in minutes, offline and
// reproducibly. What the paper's claims rest on is the input's shape,
// not its identity: the iteration bound, the pruning rate and the label
// size all follow from a scale-free degree distribution, where a few
// hubs cover most shortest paths. So each proxy keeps the three
// properties that shape depends on:
//
//   - its dataset's group: directedness and weights. Undirected graphs
//     use the GLP model, the paper's own synthetic generator; directed
//     ones use a Chung-Lu power-law model with independent in- and
//     out-degree roles; weighted ones are GLP with uniform weights;
//   - its |E|/|V| density, capped for the densest graphs (see
//     Datasets);
//   - the relative vertex-count order within its group.
//
// Absolute numbers shrink with the graphs. The comparative shape is
// what is preserved and what the tables are read for: which method
// builds faster or smaller, and how iterations, growth and pruning
// evolve.
package bench

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Kind selects the generator family for a dataset proxy.
type Kind int

const (
	// KindGLP uses the GLP model (undirected; the paper's synthetic
	// generator).
	KindGLP Kind = iota
	// KindPowerLaw uses the directed Chung-Lu power-law model.
	KindPowerLaw
	// KindGLPWeighted is GLP with uniform random weights in [1, MaxW].
	KindGLPWeighted
)

// Dataset describes one synthetic proxy.
type Dataset struct {
	// Name matches the paper's dataset name with a "-like" suffix
	// implied.
	Name string
	// Group is the paper's Table 6 section header.
	Group string
	// Kind selects the generator.
	Kind Kind
	// BaseN is the vertex count at scale 1.
	BaseN int32
	// Density is the |E|/|V| target (capped relative to the paper for
	// the densest graphs; see the package comment).
	Density float64
	// Alpha is the power-law exponent for KindPowerLaw.
	Alpha float64
	// MaxW is the weight range for KindGLPWeighted.
	MaxW int32
	// Seed fixes the generator.
	Seed int64
}

// Build materializes the proxy at the given scale factor.
func (d Dataset) Build(scale float64) (*graph.Graph, error) {
	if scale <= 0 {
		scale = 1
	}
	n := int32(float64(d.BaseN) * scale)
	if n < 16 {
		n = 16
	}
	switch d.Kind {
	case KindGLP:
		return gen.GLP(gen.DefaultGLP(n, d.Density, d.Seed))
	case KindPowerLaw:
		return gen.PowerLaw(gen.PowerLawParams{N: n, Density: d.Density, Alpha: d.Alpha, Directed: true, Seed: d.Seed})
	case KindGLPWeighted:
		g, err := gen.GLP(gen.DefaultGLP(n, d.Density, d.Seed))
		if err != nil {
			return nil, err
		}
		return gen.WithRandomWeights(g, d.MaxW, d.Seed+1)
	default:
		return nil, fmt.Errorf("bench: unknown dataset kind %d", d.Kind)
	}
}

// Directed reports whether the proxy is a directed graph.
func (d Dataset) Directed() bool { return d.Kind == KindPowerLaw }

// Weighted reports whether the proxy carries weights.
func (d Dataset) Weighted() bool { return d.Kind == KindGLPWeighted }

// Group names matching the paper's Table 6 sections.
const (
	GroupUndirected = "undirected unweighted"
	GroupDirected   = "directed unweighted"
	GroupSynthetic  = "synthetic"
	GroupWeighted   = "undirected weighted"
)

// Datasets returns the Table 6 proxy registry in the paper's order.
// BaseN keeps the paper's relative vertex-count ordering within each
// group; Density follows the paper's |E|/|V| with the densest graphs
// capped (delicious 114->30, gplus 137->30, movRating 205->40) to keep
// runtime laptop-friendly.
func Datasets() []Dataset {
	return []Dataset{
		// Undirected unweighted (paper: Delicious, BTC, FlickrLink,
		// Skitter, CatDog, Cat, Flickr, Enron).
		{Name: "delicious", Group: GroupUndirected, Kind: KindGLP, BaseN: 3000, Density: 30, Seed: 101},
		{Name: "btc", Group: GroupUndirected, Kind: KindGLP, BaseN: 8000, Density: 2.1, Seed: 102},
		{Name: "flickrlink", Group: GroupUndirected, Kind: KindGLP, BaseN: 4000, Density: 18, Seed: 103},
		{Name: "skitter", Group: GroupUndirected, Kind: KindGLP, BaseN: 4000, Density: 13, Seed: 104},
		{Name: "catdog", Group: GroupUndirected, Kind: KindGLP, BaseN: 3000, Density: 26, Seed: 105},
		{Name: "cat", Group: GroupUndirected, Kind: KindGLP, BaseN: 2000, Density: 33, Seed: 106},
		{Name: "flickr", Group: GroupUndirected, Kind: KindGLP, BaseN: 2000, Density: 19, Seed: 107},
		{Name: "enron", Group: GroupUndirected, Kind: KindGLP, BaseN: 1500, Density: 10, Seed: 108},

		// Directed unweighted (paper: wikiEng, wikiFr, wikiItaly,
		// Baidu, gplus, wikiTalk, slashdot, epinions, EuAll).
		{Name: "wikiEng", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 6000, Density: 14, Alpha: 2.2, Seed: 201},
		{Name: "wikiFr", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 4000, Density: 22, Alpha: 2.2, Seed: 202},
		{Name: "wikiItaly", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 3000, Density: 24, Alpha: 2.2, Seed: 203},
		{Name: "baidu", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 4000, Density: 8.6, Alpha: 2.3, Seed: 204},
		{Name: "gplus", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 2000, Density: 30, Alpha: 2.1, Seed: 205},
		{Name: "wikiTalk", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 6000, Density: 2.1, Alpha: 2.2, Seed: 206},
		{Name: "slashdot", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 2000, Density: 6.7, Alpha: 2.3, Seed: 207},
		{Name: "epinions", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 2000, Density: 6.7, Alpha: 2.3, Seed: 208},
		{Name: "euAll", Group: GroupDirected, Kind: KindPowerLaw, BaseN: 4000, Density: 1.6, Alpha: 2.4, Seed: 209},

		// Synthetic GLP (paper: syn1..syn6).
		{Name: "syn1", Group: GroupSynthetic, Kind: KindGLP, BaseN: 3000, Density: 35, Seed: 301},
		{Name: "syn2", Group: GroupSynthetic, Kind: KindGLP, BaseN: 5000, Density: 20, Seed: 302},
		{Name: "syn3", Group: GroupSynthetic, Kind: KindGLP, BaseN: 4000, Density: 20, Seed: 303},
		{Name: "syn4", Group: GroupSynthetic, Kind: KindGLP, BaseN: 4000, Density: 12, Seed: 304},
		{Name: "syn5", Group: GroupSynthetic, Kind: KindGLP, BaseN: 3000, Density: 5, Seed: 305},
		{Name: "syn6", Group: GroupSynthetic, Kind: KindGLP, BaseN: 2000, Density: 10, Seed: 306},

		// Undirected weighted (paper: amaRating, epinRating,
		// movRating, bookRating).
		{Name: "amaRating", Group: GroupWeighted, Kind: KindGLPWeighted, BaseN: 4000, Density: 3.3, MaxW: 5, Seed: 401},
		{Name: "epinRating", Group: GroupWeighted, Kind: KindGLPWeighted, BaseN: 2000, Density: 20, MaxW: 5, Seed: 402},
		{Name: "movRating", Group: GroupWeighted, Kind: KindGLPWeighted, BaseN: 1500, Density: 40, MaxW: 5, Seed: 403},
		{Name: "bookRating", Group: GroupWeighted, Kind: KindGLPWeighted, BaseN: 3000, Density: 3.3, MaxW: 10, Seed: 404},
	}
}

// DatasetByName finds a proxy by name.
func DatasetByName(name string) (Dataset, bool) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, true
		}
	}
	return Dataset{}, false
}

// SmallSuite returns a fast subset (one dataset per group) used by the
// Go benchmark wrappers and smoke tests.
func SmallSuite() []Dataset {
	names := []string{"enron", "slashdot", "syn6", "bookRating"}
	var out []Dataset
	for _, n := range names {
		d, ok := DatasetByName(n)
		if !ok {
			panic("bench: missing small-suite dataset " + n)
		}
		out = append(out, d)
	}
	return out
}
