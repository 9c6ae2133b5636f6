package lint

// This file is the single machine-readable declaration of the repo's
// concurrency contracts: the lock acquisition order (consumed by the
// lockorder analyzer), the effect summaries for calls that cross
// package boundaries, and the lock-free exemptions. A new lock-bearing
// type — a cluster node, a resharding planner — must register its
// position here before the tree vets clean: lockorder reports any
// sync.Mutex or sync.RWMutex struct field whose (package, type, field)
// triple is not declared below.
//
// The declared order is a linear extension of the partial order the
// code relies on:
//
//	pdmdict wrappers → core.Dict → dictionary structures → BasicDict
//	→ machine fault lock → injector locks → shards → health → emission
//	→ hook chain fold → hook sinks → repair supervisor
//
// Acquiring a class of strictly higher rank while holding a lower one
// is always safe; acquiring an equal-or-lower rank while any
// higher-or-equal rank is held is a violation (and, transitively, any
// cycle among registered classes violates some edge of the order).

// lockClass declares one lock's position in the repo-wide order.
// Classes are matched by package name, receiver type name, and mutex
// field name — the same name-based matching the other analyzers use, so
// hermetic fixtures can declare fixture-local classes.
type lockClass struct {
	Pkg   string // package name declaring the type
	Type  string // named struct type carrying the mutex field
	Field string // the sync.Mutex / sync.RWMutex field
	Rank  int    // acquisition order: strictly increasing along any hold chain
}

// lockOrder is the declared partial order (as a linear extension).
// Ranks are spaced so future classes can be slotted without renumbering.
var lockOrder = []lockClass{
	// Public wrappers: outermost. SyncDict serializes a whole Dictionary.
	{Pkg: "pdmdict", Type: "SyncDict", Field: "mu", Rank: 10},

	// The group-commit scheduler sits between the wrappers and the
	// structures: its admission lock may be held while a SyncDict read
	// lock is held (a wrapped Scheduled), and is ALWAYS released before
	// the dispatcher calls into a Backend (core, rank ≥ 20) — the
	// analyzer verifies that by the increasing ranks. The intent log's
	// lock nests inside the dispatch path, also outside the admission
	// lock.
	{Pkg: "sched", Type: "Scheduler", Field: "mu", Rank: 14},
	{Pkg: "sched", Type: "IntentLog", Field: "mu", Rank: 16},

	// The rebuild wrapper: holds its lock across calls into both the
	// draining and the filling structure.
	{Pkg: "core", Type: "Dict", Field: "mu", Rank: 20},
	{Pkg: "core", Type: "Dict", Field: "statsMu", Rank: 24},

	// Dictionary structures. The chained-level cascade behind
	// DynamicDict, OneProbeDict and StaticDict may call into its
	// membership BasicDict while holding its own lock, so BasicDict
	// ranks after it.
	{Pkg: "core", Type: "cascade", Field: "mu", Rank: 30},
	{Pkg: "core", Type: "BasicDict", Field: "mu", Rank: 34},

	// The machine. faultMu is taken first (drawFaults precedes shard
	// work); a fault injector consulted under it may take its own locks
	// and reach back only for the shard-level oracles (FlipBit,
	// BlockClean), so the injector classes sit between faultMu and the
	// shards. The health tracker's lock and emitMu are leaves taken after
	// all shard work.
	{Pkg: "pdm", Type: "Machine", Field: "faultMu", Rank: 40},
	{Pkg: "fault", Type: "Schedule", Field: "mu", Rank: 44},
	{Pkg: "fault", Type: "Plan", Field: "mu", Rank: 48},
	{Pkg: "pdm", Type: "shard", Field: "mu", Rank: 50},
	{Pkg: "health", Type: "Tracker", Field: "mu", Rank: 54},
	{Pkg: "pdm", Type: "Machine", Field: "emitMu", Rank: 58},

	// A hook chain's one span fold: the element the machine calls folds
	// each event under it and runs every record-taking member with it
	// held, so it ranks after emitMu and before the sinks; readers of
	// open records (OpAccountant.InFlight) take it before the sink lock.
	{Pkg: "obs", Type: "spanFold", Field: "mu", Rank: 60},

	// Hook sinks: run inside the machine's emission lock, so their locks
	// rank after emitMu. A sink must never call back into the machine —
	// every Machine method ranks below 62, so any such call is reported.
	{Pkg: "obs", Type: "Collector", Field: "mu", Rank: 62},
	{Pkg: "obs", Type: "Ring", Field: "mu", Rank: 62},
	{Pkg: "obs", Type: "JSONLWriter", Field: "mu", Rank: 62},
	{Pkg: "obs", Type: "OpAccountant", Field: "mu", Rank: 62},
	// Monitor wraps the other sinks but releases its own lock before
	// forwarding downstream, so the equal rank is never held-across.
	{Pkg: "obs", Type: "Monitor", Field: "mu", Rank: 62},

	// The repair supervisor's bookkeeping lock is a leaf: it is never
	// held across calls into the dictionary or the machine.
	{Pkg: "heal", Type: "Supervisor", Field: "mu", Rank: 70},

	// The idle-token list behind pdm.MakeOp and pdm.ReleaseOp is a leaf:
	// a token is minted or released under any of the locks above (the
	// Dict mints under its own, the supervisor under its bookkeeping
	// lock) and the list's lock is held across nothing.
	{Pkg: "pdm", Type: "opList", Field: "mu", Rank: 80},

	// Fixture classes (testdata/src): hermetic analyzer tests declare
	// their order here, in a rank band no real class uses.
	{Pkg: "lockfix", Type: "Outer", Field: "mu", Rank: 910},
	{Pkg: "lockfix", Type: "Middle", Field: "mu", Rank: 920},
	{Pkg: "lockfix", Type: "Middle", Field: "statsMu", Rank: 924},
	{Pkg: "lockfix", Type: "Leaf", Field: "mu", Rank: 930},
	{Pkg: "lockfixb", Type: "Client", Field: "mu", Rank: 950},
	{Pkg: "guardfix", Type: "Owner", Field: "mu", Rank: 955},
	{Pkg: "guardfix", Type: "Box", Field: "mu", Rank: 960},
	{Pkg: "unusedfix", Type: "Pad", Field: "mu", Rank: 970},
	{Pkg: "unusedfix", Type: "Pad2", Field: "mu", Rank: 975},
}

// lockClassKey identifies a registered class.
type lockClassKey struct {
	Pkg, Type, Field string
}

// lockRanks indexes lockOrder by class key.
var lockRanks = func() map[lockClassKey]int {
	m := make(map[lockClassKey]int, len(lockOrder))
	for _, c := range lockOrder {
		m[lockClassKey{c.Pkg, c.Type, c.Field}] = c.Rank
	}
	return m
}()

// methodEffect declares what a call that the analyzer cannot see into —
// a method in another package, or an interface method — may acquire.
// Method "*" covers every method of the type not declared explicitly.
// An empty Classes list declares the method lock-free (it acquires
// nothing), which is how atomic-only accessors that injectors and hook
// sinks are allowed to call are exempted.
type methodEffect struct {
	Pkg, Type, Method string
	Classes           []lockClassKey
}

// classesOf returns every registered class declared for (pkg, type).
func classesOf(pkg, typ string) []lockClassKey {
	var out []lockClassKey
	for _, c := range lockOrder {
		if c.Pkg == pkg && c.Type == typ {
			out = append(out, lockClassKey{c.Pkg, c.Type, c.Field})
		}
	}
	return out
}

// lockEffects is the cross-package call model. Calls resolved within
// the analyzed package use computed summaries instead; a cross-package
// call to a method on a registered type defaults to "may acquire every
// class of its type" unless overridden here; a cross-package call to
// anything unregistered is assumed lock-free.
var lockEffects = []methodEffect{
	// Machine methods that are single atomic loads/stores by contract:
	// fault injectors (under faultMu and their own locks) and hook sinks
	// are documented callers.
	{Pkg: "pdm", Type: "Machine", Method: "StepCount", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "AllDisksHealthy", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "Degraded", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "FaultCount", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "NoteRetry", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "NoteHedges", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "NoteRepairChunk", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "Config", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "D", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "B", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "Stats", Classes: nil},
	{Pkg: "pdm", Type: "Machine", Method: "NewOp", Classes: []lockClassKey{{"pdm", "opList", "mu"}}},
	// The chaos-schedule oracles: shard-level only, safe under the
	// injector locks (44/48 < 50).
	{Pkg: "pdm", Type: "Machine", Method: "FlipBit",
		Classes: []lockClassKey{{"pdm", "shard", "mu"}}},
	{Pkg: "pdm", Type: "Machine", Method: "BlockClean",
		Classes: []lockClassKey{{"pdm", "shard", "mu"}}},
	// Everything else on the machine: its own locks, the shards', and
	// the health tracker's.
	{Pkg: "pdm", Type: "Machine", Method: "*", Classes: append(classesOf("pdm", "Machine"),
		lockClassKey{"pdm", "shard", "mu"}, lockClassKey{"health", "Tracker", "mu"})},
	// The tracker's unhealthy-disk count is one atomic load, which is
	// what keeps Machine.AllDisksHealthy lock-free.
	{Pkg: "health", Type: "Tracker", Method: "AllHealthy", Classes: nil},

	// A hook sink runs under emitMu and may take its own sink lock.
	{Pkg: "pdm", Type: "Hook", Method: "Event",
		Classes: []lockClassKey{{"obs", "Collector", "mu"}, {"obs", "Monitor", "mu"}}},

	// The repair supervisor's wake nudge is a non-blocking channel send:
	// lock-free by contract, so an AlertListener may call it from inside
	// a hook dispatch.
	{Pkg: "heal", Type: "Supervisor", Method: "Wake", Classes: nil},
	// A fault injector runs under faultMu and may take the injector locks.
	{Pkg: "pdm", Type: "FaultInjector", Method: "Access",
		Classes: []lockClassKey{{"fault", "Schedule", "mu"}, {"fault", "Plan", "mu"}}},

	// The public Dictionary interfaces dispatch into core.Dict (or a
	// structure — possibly through a Scheduled, which takes the
	// scheduler's admission and intent-log locks first): callers must
	// hold nothing at rank ≥ 14. A front's opCore is a structure.
	{Pkg: "pdmdict", Type: "Dictionary", Method: "*",
		Classes: []lockClassKey{{"sched", "Scheduler", "mu"}, {"sched", "IntentLog", "mu"}, {"core", "Dict", "mu"}}},
	{Pkg: "pdmdict", Type: "tokenBatcher", Method: "*",
		Classes: []lockClassKey{{"sched", "Scheduler", "mu"}, {"sched", "IntentLog", "mu"}, {"core", "Dict", "mu"}}},
	{Pkg: "pdmdict", Type: "opCore", Method: "*",
		Classes: []lockClassKey{{"core", "Dict", "mu"}, {"core", "Dict", "statsMu"},
			{"core", "cascade", "mu"}, {"core", "BasicDict", "mu"}}},

	// The scheduler's Backend interface dispatches into the dictionary
	// structures; the dispatcher holds no scheduler lock at these call
	// sites (ranks 20+ > 16 would flag a violation if it did).
	{Pkg: "sched", Type: "Backend", Method: "*",
		Classes: []lockClassKey{{"core", "Dict", "mu"}, {"core", "Dict", "statsMu"},
			{"core", "cascade", "mu"}, {"core", "BasicDict", "mu"}}},
	// Scheduler entry points take the admission lock, then — with it
	// released — the intent log's lock and the Backend's locks.
	{Pkg: "sched", Type: "Scheduler", Method: "*",
		Classes: []lockClassKey{{"sched", "Scheduler", "mu"}, {"sched", "IntentLog", "mu"},
			{"core", "Dict", "mu"}, {"core", "Dict", "statsMu"},
			{"core", "cascade", "mu"}, {"core", "BasicDict", "mu"}}},

	// The rebuild wrapper's structures: any rebuildable method may take
	// its structure lock (and, through it, the membership BasicDict's).
	{Pkg: "core", Type: "rebuildable", Method: "*",
		Classes: []lockClassKey{{"core", "cascade", "mu"}, {"core", "BasicDict", "mu"}}},

	// The repair supervisor's target dictionary: repairs and scrubs
	// lock the structure they rebuild.
	{Pkg: "heal", Type: "Target", Method: "*",
		Classes: []lockClassKey{{"core", "Dict", "mu"}}},

	// Fixture effects (testdata/src/lockfix).
	{Pkg: "lockfix", Type: "Leaf", Method: "Poke", Classes: nil},
}

// effectFor resolves the declared effect of a cross-package (or
// interface) call to pkg.Type.Method: the explicit entry if one exists,
// the type's "*" entry otherwise, and finally — for registered types —
// every class of the type. Unregistered callees are assumed lock-free.
func effectFor(pkg, typ, method string) []lockClassKey {
	var star *methodEffect
	for i := range lockEffects {
		e := &lockEffects[i]
		if e.Pkg != pkg || e.Type != typ {
			continue
		}
		if e.Method == method {
			return e.Classes
		}
		if e.Method == "*" {
			star = e
		}
	}
	if star != nil {
		return star.Classes
	}
	return classesOf(pkg, typ)
}
