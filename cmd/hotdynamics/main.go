// Command hotdynamics runs the paper's Sec. III descriptive analyses on a
// dataset: the hot-spot duration histograms (Fig. 6), the consecutive-run
// histograms (Fig. 7), the weekly-pattern table (Table II), the score
// distribution (Fig. 4) and the spatial correlation study (Fig. 8).
//
// Usage:
//
//	hotdynamics -in network.hotd           # analyse a saved dataset
//	hotdynamics -sectors 600 -seed 1       # generate on the fly
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotdynamics: ")
	var (
		in        = flag.String("in", "", "dataset path (empty = generate)")
		sectors   = flag.Int("sectors", 600, "sectors when generating")
		seed      = flag.Uint64("seed", 1, "seed when generating")
		spatialOn = flag.Bool("spatial", true, "run the Fig 8 spatial analysis (O(n^2) in sectors)")
	)
	flag.Parse()

	env, err := prepare(*in, *sectors, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d sectors, %d days (%d discarded by the missing-data filter)\n\n",
		env.Ctx.Sectors(), env.Ctx.Days(), env.Discarded)

	fmt.Println(experiments.Fig01KPIExamples(env).Format())
	fmt.Println(experiments.Fig02ScoreAndLabel(env).Format())
	fmt.Println(experiments.Fig03LabelRaster(env).Format())
	fmt.Println(experiments.Fig04ScoreHistogram(env).Format())
	fmt.Println(experiments.Fig06HotSpotHistograms(env).Format())
	fmt.Println(experiments.Fig07ConsecutiveRuns(env).Format())
	fmt.Println(experiments.Tab02WeeklyPatterns(env).Format())
	if *spatialOn {
		fmt.Println(experiments.Fig08SpatialCorrelation(env).Format())
	}
}

// prepare builds an experiments.Env from a file or a fresh generation.
func prepare(path string, sectors int, seed uint64) (*experiments.Env, error) {
	scale := experiments.SmallScale()
	scale.Sectors = sectors
	scale.Seed = seed
	if path == "" {
		return experiments.Prepare(scale)
	}
	ds, err := simnet.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return experiments.FromDataset(ds, scale)
}
