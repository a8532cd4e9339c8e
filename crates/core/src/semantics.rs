//! An explicit transition relation over scenario state.
//!
//! The dynamic half of the repo drives each platform stack through the
//! fixed lockstep schedule of [`crate::engine::ScenarioEngine`]: one
//! deterministic interleaving per seed. The security argument of the
//! paper, however, quantifies over *all* interleavings — no sequence of
//! web-interface actions may disturb the control loop. This module
//! factors the step into the shape a model checker needs: a state type,
//! an `enabled_actions` relation, and a pure `apply` function, so an
//! explorer can enumerate schedules instead of following one.
//!
//! The concrete kernel stacks cannot implement this trait directly —
//! their process objects are stateful boxed trait objects that cannot be
//! cloned or hashed — so `bas-analysis` implements it over an *abstract*
//! model whose transitions are adjudicated by the same policy artifacts
//! (ACM, CapDL spec, mq ACLs) the stacks enforce at runtime, and a
//! replay harness bridges counterexamples back into the real engine.
//!
//! The two optional hooks ([`StepSemantics::is_visible`],
//! [`StepSemantics::independent`]) feed partial-order reduction; their
//! defaults are maximally conservative (everything visible, nothing
//! independent), which disables reduction but never soundness. A third,
//! [`StepSemantics::fingerprint`], picks the key states are deduplicated
//! on; its SipHash default suits any `Hash` state.

use std::hash::{Hash, Hasher};

/// A transition relation with explicit states and actions.
///
/// Implementations must be *pure*: `apply` may not observe anything but
/// its arguments, and `enabled_actions` must be deterministic for a
/// given state (the explorer relies on both for deduplication and
/// counterexample replay).
pub trait StepSemantics {
    /// A global state. `Hash + Eq` enables hashed-state deduplication;
    /// states should therefore be small value types.
    type State: Clone + Hash + Eq;
    /// One atomic transition label.
    type Action: Clone + PartialEq;

    /// The unique initial state.
    fn initial_state(&self) -> Self::State;

    /// All actions enabled in `state`, in a deterministic order.
    /// An empty vector marks a terminal state.
    fn enabled_actions(&self, state: &Self::State) -> Vec<Self::Action>;

    /// The successor of `state` under `action`. Only called with actions
    /// returned by [`StepSemantics::enabled_actions`] for that state.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Self::State;

    /// Whether `action`, taken from `state`, can change the truth of any
    /// property the checker observes. Visible actions are never deferred
    /// by partial-order reduction. Conservative default: everything is
    /// visible.
    fn is_visible(&self, _state: &Self::State, _action: &Self::Action) -> bool {
        true
    }

    /// Whether two co-enabled actions commute (neither reads or writes
    /// state the other writes, and neither enables/disables the other).
    /// Conservative default: nothing is independent.
    fn independent(&self, _a: &Self::Action, _b: &Self::Action) -> bool {
        false
    }

    /// The process an action belongs to, for ample-set grouping. Actions
    /// of the same process are never reordered against each other.
    fn owner(&self, _action: &Self::Action) -> usize {
        0
    }

    /// The 64-bit key an explorer deduplicates `state` on. The default
    /// is SipHash (zeroed keys, so stable across runs and threads) over
    /// the derived `Hash`: distinct states alias only on a full 64-bit
    /// collision. A semantics whose states fit in 64 bits should
    /// override it with an injective packing, which makes
    /// deduplication exact.
    fn fingerprint(&self, state: &Self::State) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        state.hash(&mut h);
        h.finish()
    }
}

/// Replays an action sequence from the initial state, checking that each
/// action is enabled where it is taken. Returns the visited states
/// (including the initial one) or `None` if the trace is infeasible —
/// the correctness condition for counterexample minimization.
pub fn replay_trace<S: StepSemantics>(sem: &S, trace: &[S::Action]) -> Option<Vec<S::State>> {
    let mut states = Vec::with_capacity(trace.len() + 1);
    let mut current = sem.initial_state();
    for action in trace {
        if !sem.enabled_actions(&current).contains(action) {
            return None;
        }
        let next = sem.apply(&current, action);
        states.push(std::mem::replace(&mut current, next));
    }
    states.push(current);
    Some(states)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-counter toy system: each counter can step to 2.
    struct TwoCounters;

    impl StepSemantics for TwoCounters {
        type State = (u8, u8);
        type Action = usize;

        fn initial_state(&self) -> Self::State {
            (0, 0)
        }

        fn enabled_actions(&self, s: &Self::State) -> Vec<usize> {
            let mut acts = Vec::new();
            if s.0 < 2 {
                acts.push(0);
            }
            if s.1 < 2 {
                acts.push(1);
            }
            acts
        }

        fn apply(&self, s: &Self::State, a: &usize) -> Self::State {
            match a {
                0 => (s.0 + 1, s.1),
                _ => (s.0, s.1 + 1),
            }
        }

        fn independent(&self, a: &usize, b: &usize) -> bool {
            a != b
        }

        fn owner(&self, a: &usize) -> usize {
            *a
        }
    }

    #[test]
    fn replay_follows_enabled_actions() {
        let sem = TwoCounters;
        let states = replay_trace(&sem, &[0, 1, 0, 1]).expect("feasible");
        assert_eq!(states.len(), 5);
        assert_eq!(*states.last().unwrap(), (2, 2));
    }

    #[test]
    fn replay_rejects_infeasible_traces() {
        let sem = TwoCounters;
        assert!(replay_trace(&sem, &[0, 0, 0]).is_none(), "counter capped");
    }

    #[test]
    fn conservative_defaults() {
        let sem = TwoCounters;
        let s = sem.initial_state();
        assert!(sem.is_visible(&s, &0), "default: everything visible");
        assert_eq!(sem.fingerprint(&s), sem.fingerprint(&(0, 0)));
        assert_ne!(sem.fingerprint(&s), sem.fingerprint(&(0, 1)));
    }
}
