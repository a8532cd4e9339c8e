//! Bounded explicit-state exploration with ample-set reduction.
//!
//! The explorer is generic over [`StepSemantics`]: breadth-first search
//! with key-interned state deduplication, so the first trace reaching
//! any fact is a shortest one. A `classify` callback maps each
//! discovered state to a bitmask of facts; the explorer records the
//! first hit of every bit together with its action trace.
//!
//! # State store
//!
//! Storage per discovered state is O(1), independent of depth: one
//! arena node `(parent_idx, action)` — traces are reconstructed on
//! demand by walking parent pointers — plus one 64-bit key from
//! [`StepSemantics::fingerprint`] in a pre-sized hash set. Full state
//! values live only in the current BFS frontier; the layer behind it is
//! dropped wholesale.
//!
//! For the scenario model the key is [`super::McState::pack`], an
//! injective packing, so deduplication is exact. Other semantics get
//! the SipHash default, which is the classic hash-compaction trade: two
//! distinct states colliding on all 64 bits would alias, with
//! probability ~n²/2⁶⁵. The seen set stores and compares the keys
//! themselves, so its hasher only places them in buckets: a bijective
//! splitmix64 finalizer rather than a second SipHash pass.
//!
//! # Partial-order reduction
//!
//! At each state the explorer looks for a *singleton ample set*: one
//! process whose only enabled action is invisible and independent of
//! every co-enabled action of other processes. If found, only that
//! action is expanded; otherwise the state is fully expanded. The three
//! classic soundness conditions hold as follows for the scenario model
//! (and are assumed of any other semantics passed in):
//!
//! * **C1** (no dependent action first): the candidate's independence is
//!   checked against all *currently* enabled actions; the round barrier
//!   guarantees no new dependent action can become enabled before the
//!   deferred process moves, because the environment tick — the only
//!   enabler of fresh actions — waits on every living process's own bit.
//! * **C2** (invisibility): enforced via [`StepSemantics::is_visible`].
//! * **C3** (no cycle starves an action): vacuous on a DAG; the scenario
//!   state strictly grows `(round, moved)` on every transition.
//!
//! Correctness is additionally validated empirically: the verdict layer
//! runs reduced and unreduced explorations at equal depth and asserts
//! identical verdicts (see `exp_model_check` and the crate tests).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use bas_core::semantics::{replay_trace, StepSemantics};

/// Exploration limits and switches.
#[derive(Debug, Clone, Copy)]
pub struct ExploreOpts {
    /// Enable ample-set partial-order reduction.
    pub use_por: bool,
    /// Hard cap on stored states; hitting it sets
    /// [`ExploreStats::truncated`] (the run is then *not* exhaustive).
    pub state_budget: usize,
}

impl Default for ExploreOpts {
    fn default() -> ExploreOpts {
        ExploreOpts {
            use_por: true,
            state_budget: 2_000_000,
        }
    }
}

/// Counters for one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Distinct states stored.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Longest trace depth reached.
    pub max_depth: usize,
    /// States whose successor set was reduced to an ample singleton.
    pub ample_states: usize,
    /// The state budget was exhausted; coverage is incomplete.
    pub truncated: bool,
}

impl ExploreStats {
    /// Bytes of long-lived store per state: one arena node plus one
    /// interned fingerprint. Depth-independent by construction (traces
    /// are parent-pointer walks, not per-state vectors).
    pub fn bytes_per_state<A>() -> usize {
        std::mem::size_of::<Node<A>>() + std::mem::size_of::<u64>()
    }
}

/// The result of one exploration.
pub struct Exploration<A> {
    /// Exploration counters.
    pub stats: ExploreStats,
    /// Shortest witness trace for each fact bit that was reached,
    /// indexed by bit position.
    pub first_hits: Vec<Option<Vec<A>>>,
}

impl<A> Exploration<A> {
    /// Whether fact `bit` was reached.
    pub fn reached(&self, bit: u32) -> bool {
        self.first_hits
            .get(bit.trailing_zeros() as usize)
            .is_some_and(Option::is_some)
    }

    /// The witness trace for fact `bit`, if reached.
    pub fn witness(&self, bit: u32) -> Option<&[A]> {
        self.first_hits
            .get(bit.trailing_zeros() as usize)?
            .as_deref()
    }
}

/// One arena entry: the parent index and the action that produced the
/// state. Depth is implicit in the BFS layer, so the node carries no
/// per-state trace and no depth field.
pub struct Node<A> {
    parent: u32,
    action: Option<A>,
}

fn trace_of<A: Clone>(nodes: &[Node<A>], mut idx: usize) -> Vec<A> {
    let mut trace = Vec::new();
    while let Some(a) = &nodes[idx].action {
        trace.push(a.clone());
        idx = nodes[idx].parent as usize;
    }
    trace.reverse();
    trace
}

/// The seen set's hasher: keys are already 64-bit state keys, so one
/// bijective splitmix64 finalizer spreads them over the buckets.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

type KeySet = HashSet<u64, BuildHasherDefault<KeyHasher>>;

/// Initial capacity for the seen-set and arena: enough for every cell
/// of the scenario matrix without rehashing, without committing the
/// full `state_budget` upfront.
fn presize(budget: usize) -> usize {
    budget.min(1 << 17)
}

/// The index of a singleton ample action, if any process qualifies.
fn ample_action<S: StepSemantics>(
    sem: &S,
    state: &S::State,
    enabled: &[S::Action],
) -> Option<usize> {
    enabled.iter().position(|candidate| {
        let owner = sem.owner(candidate);
        // Only singleton ample sets are attempted.
        enabled.iter().filter(|a| sem.owner(a) == owner).count() == 1
            && !sem.is_visible(state, candidate)
            && enabled
                .iter()
                .filter(|a| sem.owner(a) != owner)
                .all(|other| sem.independent(candidate, other))
    })
}

/// The POR-or-full successor action set for one state. An ample
/// singleton reuses the `enabled` vector rather than allocating.
fn expansion<S: StepSemantics>(
    sem: &S,
    state: &S::State,
    use_por: bool,
    ample_states: &mut usize,
) -> Vec<S::Action> {
    let mut enabled = sem.enabled_actions(state);
    if use_por {
        if let Some(i) = ample_action(sem, state, &enabled) {
            *ample_states += 1;
            enabled.swap(0, i);
            enabled.truncate(1);
        }
    }
    enabled
}

/// Explores the reachable state space of `sem` breadth-first, calling
/// `classify` on every discovered state. Fact bit 0..32 first-hits are
/// recorded with shortest witness traces.
pub fn explore<S, F>(sem: &S, opts: &ExploreOpts, classify: F) -> Exploration<S::Action>
where
    S: StepSemantics,
    F: Fn(&S::State) -> u32,
{
    let mut stats = ExploreStats {
        states: 1,
        ..ExploreStats::default()
    };
    let mut first_hits: Vec<Option<Vec<S::Action>>> = (0..32).map(|_| None).collect();
    let mut hit_mask = 0u32;
    let mut nodes = Vec::with_capacity(presize(opts.state_budget));
    let mut seen =
        KeySet::with_capacity_and_hasher(presize(opts.state_budget) + 1, Default::default());

    let initial = sem.initial_state();
    nodes.push(Node {
        parent: 0,
        action: None,
    });
    record_hits(
        &mut first_hits,
        &mut hit_mask,
        &nodes,
        0,
        classify(&initial),
    );
    seen.insert(sem.fingerprint(&initial));
    let mut frontier: Vec<(u32, S::State)> = vec![(0, initial)];
    let mut depth = 0usize;

    while !frontier.is_empty() && !stats.truncated {
        depth += 1;
        let mut next: Vec<(u32, S::State)> = Vec::new();
        'frontier: for (idx, state) in &frontier {
            for action in expansion(sem, state, opts.use_por, &mut stats.ample_states) {
                let succ = sem.apply(state, &action);
                stats.transitions += 1;
                if !seen.insert(sem.fingerprint(&succ)) {
                    continue;
                }
                if stats.states >= opts.state_budget {
                    stats.truncated = true;
                    break 'frontier;
                }
                let node = nodes.len();
                nodes.push(Node {
                    parent: *idx,
                    action: Some(action),
                });
                stats.max_depth = stats.max_depth.max(depth);
                record_hits(
                    &mut first_hits,
                    &mut hit_mask,
                    &nodes,
                    node,
                    classify(&succ),
                );
                next.push((node as u32, succ));
                stats.states += 1;
            }
        }
        frontier = next;
    }

    Exploration { stats, first_hits }
}

/// Records a freshly committed state's facts against the first-hit
/// table (the node must already be in the arena).
fn record_hits<A: Clone>(
    first_hits: &mut [Option<Vec<A>>],
    hit_mask: &mut u32,
    nodes: &[Node<A>],
    node: usize,
    facts: u32,
) {
    let fresh = facts & !*hit_mask;
    if fresh == 0 {
        return;
    }
    for (bit, hit) in first_hits.iter_mut().enumerate() {
        if fresh & (1 << bit) != 0 {
            *hit = Some(trace_of(nodes, node));
        }
    }
    *hit_mask |= fresh;
}

/// Greedily shrinks a witness trace: repeatedly drops any single action
/// whose removal leaves the trace feasible *and* still reaching a state
/// where `violates` holds (facts are monotone in the scenario model, so
/// any visited state may witness). The result is 1-minimal: no single
/// action can be removed.
pub fn minimize_trace<S, F>(sem: &S, trace: &[S::Action], violates: F) -> Vec<S::Action>
where
    S: StepSemantics,
    F: Fn(&S::State) -> bool,
{
    let still_violates =
        |t: &[S::Action]| replay_trace(sem, t).is_some_and(|states| states.iter().any(&violates));
    debug_assert!(still_violates(trace), "input trace must witness");
    let mut current: Vec<S::Action> = trace.to_vec();
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        for i in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if still_violates(&candidate) {
                current = candidate;
                shrunk = true;
                break;
            }
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three independent counters, each stepping 0 → 2. Counter 0
    /// reaching 2 is the observed fact; the others are invisible noise.
    struct Counters;

    const N: usize = 3;
    const GOAL: u32 = 1 << 0;

    impl StepSemantics for Counters {
        type State = [u8; N];
        type Action = usize;

        fn initial_state(&self) -> [u8; N] {
            [0; N]
        }

        fn enabled_actions(&self, s: &[u8; N]) -> Vec<usize> {
            (0..N).filter(|&i| s[i] < 2).collect()
        }

        fn apply(&self, s: &[u8; N], a: &usize) -> [u8; N] {
            let mut t = *s;
            t[*a] += 1;
            t
        }

        fn is_visible(&self, _s: &[u8; N], a: &usize) -> bool {
            *a == 0
        }

        fn independent(&self, a: &usize, b: &usize) -> bool {
            a != b
        }

        fn owner(&self, a: &usize) -> usize {
            *a
        }
    }

    fn classify(s: &[u8; N]) -> u32 {
        u32::from(s[0] == 2)
    }

    #[test]
    fn bfs_finds_the_shortest_witness() {
        let opts = ExploreOpts {
            use_por: false,
            state_budget: 10_000,
        };
        let ex = explore(&Counters, &opts, classify);
        assert_eq!(ex.stats.states, 27, "full product space");
        assert!(ex.reached(GOAL));
        assert_eq!(
            ex.witness(GOAL).expect("goal was reached"),
            &[0, 0],
            "two steps, no noise"
        );
    }

    #[test]
    fn por_reduces_states_with_identical_verdicts() {
        let full = explore(
            &Counters,
            &ExploreOpts {
                use_por: false,
                state_budget: 10_000,
            },
            classify,
        );
        let reduced = explore(
            &Counters,
            &ExploreOpts {
                use_por: true,
                state_budget: 10_000,
            },
            classify,
        );
        assert!(
            reduced.stats.states < full.stats.states,
            "{} !< {}",
            reduced.stats.states,
            full.stats.states
        );
        assert!(reduced.stats.ample_states > 0);
        assert_eq!(reduced.reached(GOAL), full.reached(GOAL));
    }

    #[test]
    fn state_budget_truncates() {
        let ex = explore(
            &Counters,
            &ExploreOpts {
                use_por: false,
                state_budget: 5,
            },
            classify,
        );
        assert!(ex.stats.truncated);
        assert!(ex.stats.states <= 5);
    }

    #[test]
    fn node_storage_is_depth_independent() {
        // One node + one fingerprint, no embedded trace vector.
        assert!(ExploreStats::bytes_per_state::<usize>() <= 32);
    }

    #[test]
    fn minimization_drops_noise_actions() {
        let sem = Counters;
        let noisy = vec![1, 2, 0, 1, 2, 0];
        let min = minimize_trace(&sem, &noisy, |s| s[0] == 2);
        assert_eq!(min, vec![0, 0]);
    }
}
