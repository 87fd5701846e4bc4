package main

import (
	"fmt"
	"runtime"
)

// scale sizes every workload. "full" is the benchmark; "tiny" runs the
// same code paths in a few seconds for the benchmark's own tests.
type scale struct {
	workers int // engine workers per system: nproc

	// offline: a YH-shaped graph whose CSR exceeds the last-level cache.
	offlineScale      uint32 // YH |V| divisor
	setupReps         int
	dwSteps, n2vSteps int
	oocSteps          int
	minRounds         int
	hopSample         int    // walkers whose every hop is checked per pass
	blockBudget       uint64 // ooc block budget, below the CSR size
	residentBudget    uint64
	equivWalkers      uint64 // ooc-vs-in-memory trajectory check
	equivSteps        int

	// serve-*: a YT-shaped graph that fits the last-level cache.
	servePreset    string
	serveScale     uint32 // YT |V| divisor
	planWalkers    uint64 // serve builds price plans for wave-sized runs
	serveSetupReps int
	// Offered rates in req/s. The nominal rate is below capacity; the
	// ladders (traced passes only) end above it.
	mixedNominal             float64
	mixedLadder, churnLadder []float64
	// serve-mixed's traced pass also offers the stream to a sharded
	// topology at this rate, below that topology's capacity.
	shardedRate float64
	// Shares of --seconds: the nominal phase, the closed-loop capacity
	// probe, and each further ladder rung.
	nominalShare, probeShare, ladderShare float64
	shardedShare                          float64
	probeClients                          int     // below the admission queue depth, so nothing sheds
	probeQueriesPerSecond                 float64 // queries drawn for the probe, above capacity
	warmupSkip                            float64 // share of a phase's start excluded from goodput
	mustServeTimeoutMS                    float64 // requests that must be served: the server's largest deadline, so a host stall cannot shed them
	overloadTimeoutMS                     float64
	sloP99MS                              float64
	maxLagMS                              float64
	referenceBatch                        int // cohorts per reference WalkMixed
	// serve-churn's edge stream.
	ingestPerSecond float64
	ingestEdges     int
	newVertexEvery  int // every k-th batch also attaches a new vertex
	compactEvery    int
}

func scaleFor(name string) (*scale, error) {
	sc := &scale{
		workers:               runtime.NumCPU(),
		setupReps:             3,
		minRounds:             2,
		hopSample:             4096,
		equivSteps:            4,
		servePreset:           "YT",
		planWalkers:           2048,
		serveSetupReps:        10,
		nominalShare:          0.5,
		probeShare:            0.4,
		ladderShare:           0.15,
		shardedShare:          0.3,
		probeClients:          128,
		probeQueriesPerSecond: 4000,
		warmupSkip:            0.1,
		mustServeTimeoutMS:    30000,
		overloadTimeoutMS:     500,
		sloP99MS:              100,
		maxLagMS:              10,
		referenceBatch:        128,
		ingestPerSecond:       10,
		newVertexEvery:        4,
	}
	switch name {
	case "full":
		sc.offlineScale = 100 // 7.2M vertices, 66.8M edges, 309 MiB CSR
		sc.dwSteps, sc.n2vSteps, sc.oocSteps = 6, 4, 4
		sc.blockBudget = 64 << 20
		sc.residentBudget = 32 << 20
		sc.equivWalkers = 1 << 19
		sc.serveScale = 1 // 1.14M vertices, 5.2M edges, 28 MiB CSR
		sc.mixedNominal, sc.shardedRate = 300, 120
		sc.mixedLadder = []float64{150, 450, 650, 1300}
		sc.churnLadder = []float64{1300}
		sc.ingestEdges = 256
		sc.compactEvery = 8
	case "tiny":
		sc.offlineScale = 20000
		sc.dwSteps, sc.n2vSteps, sc.oocSteps = 4, 2, 4
		sc.setupReps = 2
		sc.minRounds = 1
		sc.hopSample = 512
		sc.blockBudget = 512 << 10
		sc.residentBudget = 128 << 10
		sc.equivWalkers = 4096
		sc.serveScale = 200
		sc.serveSetupReps = 2
		sc.mixedNominal, sc.shardedRate = 100, 50
		sc.mixedLadder = []float64{50, 400}
		sc.churnLadder = []float64{400}
		sc.probeClients = 16
		sc.probeQueriesPerSecond = 2000
		sc.ingestPerSecond = 20
		sc.ingestEdges = 32
		sc.compactEvery = 4
		sc.maxLagMS = 200
	default:
		return nil, fmt.Errorf("unknown scale %q (have full, tiny)", name)
	}
	return sc, nil
}
