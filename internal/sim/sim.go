// Package sim is a discrete-event simulator for neighbor discovery among S
// devices sharing one or more radio channels.
//
// The coverage engine (package coverage) answers the two-device question
// exactly; this simulator answers the questions the closed forms cannot:
// what happens when many devices discover each other simultaneously, their
// beacons collide (unslotted ALOHA: any airtime overlap on the same
// channel destroys both packets), radios are half-duplex, schedules are
// jittered for decorrelation (the BLE advDelay mechanism the paper's
// conclusion points to), and transmissions rotate over several advertising
// channels. It is the workload generator behind the Figure 7 and
// Appendix B experiments and the engine's multi-channel crowd workloads.
//
// All trial paths are configurations of one event-driven kernel over a
// world of nodes × radios × channels (RunWorld, world.go); Run is its
// single-channel form. The per-trial primitives (PairTrial, GroupTrial,
// ChurnTrial, the MultiChannel* trials, SlotGridPair.Trial) take an
// injected rand source so the engine can derive one stream per trial —
// the root of its bit-identical-across-workers contract. Time is integer
// ticks. Every run is deterministic given its seed.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/schedule"
	"repro/internal/timebase"
)

// Node is one simulated device: a schedule plus a phase shift that places
// the schedule's origin at absolute time Phase. Arrive and Depart bound the
// node's presence: it transmits and receives only within [Arrive, Depart).
// The zero values mean "present from the start" and "never departs".
type Node struct {
	Device schedule.Device
	Phase  timebase.Ticks
	Arrive timebase.Ticks
	Depart timebase.Ticks // 0 = stays for the whole horizon
}

func (n Node) departOr(horizon timebase.Ticks) timebase.Ticks {
	if n.Depart <= 0 {
		return horizon
	}
	return n.Depart
}

// Config controls channel and radio semantics.
type Config struct {
	// Horizon is the simulated duration; events at t ∈ [0, Horizon).
	Horizon timebase.Ticks

	// Collisions enables the ALOHA channel: a packet overlapping any other
	// packet in time is destroyed at every receiver.
	Collisions bool

	// HalfDuplex prevents a device from receiving while it transmits.
	HalfDuplex bool

	// TruncatedWindows requires a packet to start no later than ω before
	// the window's end to be received (Appendix A.3 semantics).
	TruncatedWindows bool

	// Jitter delays each beacon independently by a uniform amount in
	// [0, Jitter], decorrelating periodic collision patterns (the BLE
	// advDelay mechanism). Zero disables jitter.
	Jitter timebase.Ticks

	// Seed feeds the deterministic RNG used for jitter.
	Seed int64

	// Source, when non-nil, supplies the RNG stream and takes precedence
	// over Seed. Injecting a source lets callers shard Monte-Carlo trials
	// across goroutines with independent, deterministic per-trial streams
	// (see PairTrial, GroupTrial and ChurnTrial).
	Source rand.Source
}

// rng materializes the configured RNG stream: the injected Source if set,
// otherwise a fresh stream seeded with Seed.
func (c Config) rng() *rand.Rand {
	if c.Source != nil {
		return rand.New(c.Source)
	}
	return rand.New(rand.NewSource(c.Seed))
}

// transmission is one packet on air. Its sender and channel are implied by
// the run (txRun) holding it, which keeps the struct at 24 bytes — the
// kernel streams millions of these per second, so its footprint is
// memory-bandwidth-sensitive.
type transmission struct {
	start, end timebase.Ticks
	collided   bool
}

// Discovery records receiver first hearing sender.
type Discovery struct {
	Receiver, Sender int
	At               timebase.Ticks // completion time of the received packet
}

// Result aggregates one simulation run.
type Result struct {
	// First[r][s] is the first time receiver r heard sender s; missing key
	// means no discovery within the horizon.
	First map[int]map[int]timebase.Ticks

	// Transmissions and Collided count packets on air and packets
	// destroyed by the collision channel.
	Transmissions, Collided int
}

// CollisionRate returns the fraction of packets destroyed by collisions.
func (r Result) CollisionRate() float64 {
	if r.Transmissions == 0 {
		return 0
	}
	return float64(r.Collided) / float64(r.Transmissions)
}

// FirstDiscovery returns when receiver first heard sender, if ever.
func (r Result) FirstDiscovery(receiver, sender int) (timebase.Ticks, bool) {
	m, ok := r.First[receiver]
	if !ok {
		return 0, false
	}
	t, ok := m[sender]
	return t, ok
}

// Run simulates the node set under cfg: the single-channel configuration
// of the world kernel (see world.go), with every node's beacon and window
// schedules on channel 0 and discoveries reported at packet completion.
func Run(nodes []Node, cfg Config) (Result, error) {
	ws := make([]WorldNode, len(nodes))
	for i, n := range nodes {
		ws[i] = WorldNode{Arrive: n.Arrive, Depart: n.Depart}
		if !n.Device.B.Empty() {
			ws[i].Emits = []Emission{{Channel: 0, B: n.Device.B, Phase: n.Phase}}
		}
		if !n.Device.C.Empty() {
			ws[i].Listens = []Listening{{Channel: 0, C: n.Device.C, Phase: n.Phase}}
		}
	}
	wr, err := RunWorld(ws, cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		First:         make(map[int]map[int]timebase.Ticks, len(wr.First)),
		Transmissions: wr.Transmissions,
		Collided:      wr.Collided,
	}
	for r, m := range wr.First {
		rm := make(map[int]timebase.Ticks, len(m))
		for s, rec := range m {
			rm[s] = rec.End
		}
		res.First[r] = rm
	}
	return res, nil
}

// Stats summarizes a latency sample set.
type Stats struct {
	N             int
	Misses        int // trials with no discovery within the horizon
	Min, Max      timebase.Ticks
	Mean          float64
	P50, P95, P99 timebase.Ticks
}

// Collect computes order statistics over samples; misses counts separately.
func Collect(samples []timebase.Ticks, misses int) Stats {
	sorted := append([]timebase.Ticks(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return CollectSorted(sorted, misses)
}

// CollectSorted is Collect for a sample slice the caller has already
// sorted ascending, skipping the defensive copy and re-sort.
func CollectSorted(sorted []timebase.Ticks, misses int) Stats {
	st := Stats{N: len(sorted) + misses, Misses: misses}
	if len(sorted) == 0 {
		return st
	}
	st.Min = sorted[0]
	st.Max = sorted[len(sorted)-1]
	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	st.Mean = sum / float64(len(sorted))
	st.P50 = quantile(sorted, 0.50)
	st.P95 = quantile(sorted, 0.95)
	st.P99 = quantile(sorted, 0.99)
	return st
}

func quantile(sorted []timebase.Ticks, q float64) timebase.Ticks {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// FailureRate returns the fraction of trials that missed.
func (s Stats) FailureRate() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.N)
}

// PairLatencies Monte-Carlos the one-way discovery latency of receiver
// device F hearing sender device E: each trial draws independent uniform
// phases for both schedules and reports the first reception time.
func PairLatencies(e, f schedule.Device, trials int, cfg Config) (Stats, error) {
	if trials < 1 {
		return Stats{}, fmt.Errorf("sim: trials %d must be ≥ 1", trials)
	}
	rng := cfg.rng()
	var samples []timebase.Ticks
	misses := 0
	for t := 0; t < trials; t++ {
		at, ok, err := PairTrial(e, f, cfg, rng)
		if err != nil {
			return Stats{}, err
		}
		if ok {
			samples = append(samples, at)
		} else {
			misses++
		}
	}
	return Collect(samples, misses), nil
}

// GroupResult aggregates a many-device experiment.
type GroupResult struct {
	Latency       Stats   // over all ordered (receiver, sender) pairs and trials
	CollisionRate float64 // pooled per-packet collision fraction over all trials
}

// GroupDiscovery Monte-Carlos S identical devices with random phases and
// measures pairwise one-way discovery latency and the packet collision
// rate — the pooled ratio of collided to transmitted packets over all
// trials, so every packet weighs the same no matter how trials split the
// traffic.
func GroupDiscovery(dev schedule.Device, s, trials int, cfg Config) (GroupResult, error) {
	if s < 2 {
		return GroupResult{}, fmt.Errorf("sim: group size %d must be ≥ 2", s)
	}
	rng := cfg.rng()
	var samples []timebase.Ticks
	misses := 0
	transmissions, collided := 0, 0
	for t := 0; t < trials; t++ {
		tr, err := GroupTrial(dev, s, cfg, rng)
		if err != nil {
			return GroupResult{}, err
		}
		transmissions += tr.Transmissions
		collided += tr.Collided
		samples = append(samples, tr.Samples...)
		misses += tr.Misses
	}
	res := GroupResult{Latency: Collect(samples, misses)}
	if transmissions > 0 {
		res.CollisionRate = float64(collided) / float64(transmissions)
	}
	return res, nil
}

// ChurnDiscovery simulates a dynamic neighborhood: s identical devices
// arrive at uniformly random times in the first half of the horizon and
// stay for stay ticks (0 = until the end). For every ordered pair whose
// presence overlaps by at least the schedule period, it measures the
// latency from the moment both are present until first discovery. This is
// the scenario the paper's introduction motivates: nodes encountering each
// other on the move, with only a bounded contact window to find each other.
func ChurnDiscovery(dev schedule.Device, s, trials int, stay timebase.Ticks, cfg Config) (Stats, error) {
	contacts, err := ChurnContacts(dev, s, trials, stay, cfg)
	if err != nil {
		return Stats{}, err
	}
	var samples []timebase.Ticks
	misses := 0
	for _, c := range contacts {
		if c.Discovered {
			samples = append(samples, c.Latency)
		} else {
			misses++
		}
	}
	return Collect(samples, misses), nil
}

// Contact is one ordered pair's encounter in a churn simulation: the
// duration both devices were jointly present, and whether (and when,
// measured from the joint-presence instant) the receiver discovered the
// sender.
type Contact struct {
	Overlap    timebase.Ticks
	Discovered bool
	Latency    timebase.Ticks // valid iff Discovered
}

// ChurnContacts runs the churn scenario of ChurnDiscovery and returns the
// raw per-pair contact records, so callers can bin discovery ratios by
// contact duration — the deployment-planning view: contacts of at least
// the worst-case bound L are guaranteed, shorter ones are best-effort.
func ChurnContacts(dev schedule.Device, s, trials int, stay timebase.Ticks, cfg Config) ([]Contact, error) {
	if s < 2 {
		return nil, fmt.Errorf("sim: group size %d must be ≥ 2", s)
	}
	rng := cfg.rng()
	var contacts []Contact
	for t := 0; t < trials; t++ {
		cs, _, err := ChurnTrial(dev, s, stay, cfg, rng)
		if err != nil {
			return nil, err
		}
		contacts = append(contacts, cs...)
	}
	return contacts, nil
}

func maxTicks(a, b timebase.Ticks) timebase.Ticks {
	if a > b {
		return a
	}
	return b
}

func minTicks(a, b timebase.Ticks) timebase.Ticks {
	if a < b {
		return a
	}
	return b
}

func randPhase(rng *rand.Rand, d schedule.Device) timebase.Ticks {
	period := d.B.Period
	if period == 0 || (d.C.Period > 0 && d.C.Period > period) {
		period = d.C.Period
	}
	if period <= 0 {
		return 0
	}
	return timebase.Ticks(rng.Int63n(int64(period)))
}
