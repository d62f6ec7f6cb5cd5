package check

import "fmt"

// FaultKind names one forced-failure mode. Each kind targets a specific
// backpressure or waiter path that healthy workloads exercise only rarely.
type FaultKind uint8

// The fault matrix (`make chaos` runs the quick campaign under each).
const (
	// FaultNone disables injection (the zero value).
	FaultNone FaultKind = iota
	// FaultSwapExhaustion rejects a fraction of swap-op admissions as if
	// the swap buffers were full, driving the managers' requeue/decline
	// paths.
	FaultSwapExhaustion
	// FaultMetaThrash treats a fraction of metadata-cache hits as misses,
	// forcing refetches and exercising the pending-line waiter merging.
	FaultMetaThrash
	// FaultQueueSaturation delays a fraction of memory-line issues by a
	// random backlog, as if the channel queues were saturated.
	FaultQueueSaturation
	// FaultDemandStorm fires a burst of swap-buffer demand interceptions at
	// the source lines of every swap op that starts, exercising the
	// buffered/issued/unissued waiter branches of TryService.
	FaultDemandStorm
)

// String returns the kind's CLI name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultSwapExhaustion:
		return "swap-exhaustion"
	case FaultMetaThrash:
		return "meta-thrash"
	case FaultQueueSaturation:
		return "queue-saturation"
	case FaultDemandStorm:
		return "demand-storm"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// ParseFault resolves a CLI name to a FaultKind.
func ParseFault(s string) (FaultKind, error) {
	for _, k := range append([]FaultKind{FaultNone}, FaultKinds()...) {
		if s == k.String() {
			return k, nil
		}
	}
	return FaultNone, fmt.Errorf("check: unknown fault kind %q", s)
}

// FaultKinds returns every injectable kind — the chaos-matrix axis.
func FaultKinds() []FaultKind {
	return []FaultKind{FaultSwapExhaustion, FaultMetaThrash, FaultQueueSaturation, FaultDemandStorm}
}

// FaultPlan configures one injection campaign. The zero value injects
// nothing.
type FaultPlan struct {
	Kind FaultKind
	// Rate is the per-decision-point probability, in [0, 1] (0 picks the
	// kind's default, chosen to be disruptive without starving the run).
	Rate float64
	// Seed keys the injector's private RNG. Injection decisions depend only
	// on (Seed, decision index), and the event loop is single-threaded, so
	// a faulted run is exactly as repeatable as a clean one.
	Seed uint64
}

// Validate rejects a Rate that is not a probability (NaN included).
func (p FaultPlan) Validate() error {
	if !(p.Rate >= 0 && p.Rate <= 1) {
		return fmt.Errorf("fault rate %v is outside [0, 1]", p.Rate)
	}
	return nil
}

// InjectorStats counts what was actually injected, for reports and
// crashdumps.
type InjectorStats struct {
	SwapStartsBlocked uint64
	MetaMissesForced  uint64
	IssueStalls       uint64
	StormTouches      uint64
}

// Injector is a seeded source of forced faults. Components consult it at
// their decision points through kind-specific predicates; a predicate for a
// kind the plan did not select returns the no-fault answer without touching
// the RNG, so enabling one fault never perturbs another's decision stream.
// A nil *Injector is the common case and every call site nil-guards it, so
// runs without a fault plan pay one pointer compare.
type Injector struct {
	plan  FaultPlan
	state uint64
	stats InjectorStats
}

// NewInjector builds an injector for plan, or nil when the plan is empty —
// so callers can wire the result unconditionally.
func NewInjector(plan FaultPlan) *Injector {
	if plan.Kind == FaultNone {
		return nil
	}
	if plan.Rate <= 0 {
		plan.Rate = defaultRate(plan.Kind)
	}
	return &Injector{plan: plan, state: plan.Seed ^ 0x9e3779b97f4a7c15}
}

func defaultRate(k FaultKind) float64 {
	switch k {
	case FaultSwapExhaustion:
		return 0.5
	case FaultMetaThrash:
		return 0.2
	case FaultQueueSaturation:
		return 0.05
	case FaultDemandStorm:
		return 1.0
	}
	return 0
}

// Plan returns the configured plan.
func (i *Injector) Plan() FaultPlan { return i.plan }

// Stats returns a snapshot of the injection counters.
func (i *Injector) Stats() InjectorStats { return i.stats }

// next is splitmix64: a full-period 64-bit generator whose tiny state keeps
// the injector allocation-free.
func (i *Injector) next() uint64 {
	i.state += 0x9e3779b97f4a7c15
	z := i.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance returns true with probability p.
func (i *Injector) chance(p float64) bool {
	return float64(i.next()>>11)/(1<<53) < p
}

// SwapStartBlocked reports whether this swap-op admission should be
// rejected as if the buffers were exhausted.
func (i *Injector) SwapStartBlocked() bool {
	if i.plan.Kind != FaultSwapExhaustion || !i.chance(i.plan.Rate) {
		return false
	}
	i.stats.SwapStartsBlocked++
	return true
}

// ForceMetaMiss reports whether this metadata-cache hit should be handled
// as a miss (thrash).
func (i *Injector) ForceMetaMiss() bool {
	if i.plan.Kind != FaultMetaThrash || !i.chance(i.plan.Rate) {
		return false
	}
	i.stats.MetaMissesForced++
	return true
}

// IssueStallCycles returns the extra queueing delay (0 = none) to impose on
// one memory-line issue.
func (i *Injector) IssueStallCycles() uint64 {
	if i.plan.Kind != FaultQueueSaturation || !i.chance(i.plan.Rate) {
		return 0
	}
	i.stats.IssueStalls++
	return 200 + i.next()%1800
}

// StormTouches returns how many source lines of a just-started swap op
// should receive synthetic demand interceptions (0 = none).
func (i *Injector) StormTouches() int {
	if i.plan.Kind != FaultDemandStorm || !i.chance(i.plan.Rate) {
		return 0
	}
	n := 4 + int(i.next()%13)
	i.stats.StormTouches += uint64(n)
	return n
}
