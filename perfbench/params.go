package main

import "time"

// The frozen parameters of the three workloads. A change to any of them
// is a change to the benchmark, never part of a change that claims a
// gain. README.md describes the workloads.
const (
	// xmark-stream: one shared pass of the seven streaming XMark
	// queries over one seeded auction document per op.
	xmarkDocBytes = 2 << 20

	// buffered-spill: Plan.Execute of three plans in turn per op, all
	// drawing on one shared spill-policy BufferManager whose budget is
	// below the natural peaks of the two spilling plans at seed 1. Each
	// plan has spillVariants seeded documents; op i uses variant
	// i mod spillVariants, so one run averages over several documents.
	spillJoinDocBytes     = 64 << 10  // xmark-q8-join input
	spillDistinctDocBytes = 64 << 10  // xmp-q4-distinct input
	spillWeakDocBytes     = 128 << 10 // xmp-q3-weak input
	spillVariants         = 4
	spillBudget           = 28 << 10

	// serve-subscriptions: fluxserve with serveQueries registrations
	// over the serveFamilies-family catalog schema, fed serveDocs seeded
	// documents whose sizes are spread evenly over serveDocMin..
	// serveDocMax, each posted equally often in a seeded order.
	serveFamilies  = 32
	serveQueries   = 256
	serveDocs      = 32
	serveDocMin    = 1 << 10
	serveDocMax    = 16 << 10
	serveChurned   = 16   // names the churn stream PUTs and DELETEs
	serveNominal   = 20.0 // /eval requests per second, nominal phase
	serveChurnRate = 16.0 // churn requests per second, nominal phase
	// The ramp starts at serveRampStartShare of the rate one connection
	// could carry at the nominal phase's mean service time, and moves
	// the rate by serveRampFactor per step of serveRampStep (up while
	// steps meet the limit, down while they miss it) until it has a
	// step on each side of the limit, then bisects between the two
	// while time allows.
	serveRampStartShare = 0.7
	serveRampFactor     = 1.1
	serveRampStep       = 3 * time.Second
	serveLimit          = 50 * time.Millisecond
	// serveNominalShare is the share of --seconds spent at the nominal
	// rate; the rest is the ramp.
	serveNominalShare = 0.3
	// serveRefEvery is how often the host reference tries to run beside
	// the nominal phase; refBlockReps runs of it go before every ramp
	// step, while the server is idle.
	serveRefEvery = 60 * time.Millisecond

	// A closed-loop run repeats its set-up setupsPerRound times in each
	// round of the loop (about 200 set-ups in 30 s), serve-subscriptions
	// serveSetupReps times before the load; setup_s is the median.
	setupsPerRound = 7
	serveSetupReps = 15
)
