//! The sparse access-control matrix and its kernel-side check.

use std::collections::BTreeMap;
use std::fmt;

use crate::decision::{Decision, DenyReason};
use crate::id::{AcId, MsgType};

/// A set of permitted message types for one matrix cell.
///
/// The paper's Fig. 3 shows these as bitmaps (`1101` = types {0, 2, 3}
/// allowed, most-significant bit = highest type). Types 0–63 are stored in
/// one machine word, matching the paper's compile-the-matrix-into-the-kernel
/// representation; a wildcard variant supports system channels.
///
/// ```
/// use bas_acm::id::MsgType;
/// use bas_acm::matrix::MsgTypeSet;
///
/// let set = MsgTypeSet::of([MsgType::new(0), MsgType::new(2), MsgType::new(3)]);
/// assert!(set.contains(MsgType::new(2)));
/// assert!(!set.contains(MsgType::new(1)));
/// assert_eq!(set.bitmap_string(4), "1101");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgTypeSet {
    /// Explicit bitmap over types 0–63 (bit *i* set = type *i* allowed).
    Bitmap(u64),
    /// Every message type is allowed (used for trusted system channels).
    All,
}

impl MsgTypeSet {
    /// The empty set.
    pub const EMPTY: MsgTypeSet = MsgTypeSet::Bitmap(0);

    /// Builds a set from explicit message types.
    ///
    /// # Panics
    ///
    /// Panics if any type exceeds 63; the compiled-bitmap representation
    /// matches the paper's fixed-width kernel table.
    pub fn of<I: IntoIterator<Item = MsgType>>(types: I) -> Self {
        let mut bits = 0u64;
        for t in types {
            assert!(t.as_u32() < 64, "message type {} out of bitmap range", t);
            bits |= 1 << t.as_u32();
        }
        MsgTypeSet::Bitmap(bits)
    }

    /// True if `t` is in the set.
    pub fn contains(self, t: MsgType) -> bool {
        match self {
            MsgTypeSet::All => true,
            MsgTypeSet::Bitmap(bits) => t.as_u32() < 64 && bits & (1 << t.as_u32()) != 0,
        }
    }

    /// Union of two sets.
    pub fn union(self, other: MsgTypeSet) -> MsgTypeSet {
        match (self, other) {
            (MsgTypeSet::All, _) | (_, MsgTypeSet::All) => MsgTypeSet::All,
            (MsgTypeSet::Bitmap(a), MsgTypeSet::Bitmap(b)) => MsgTypeSet::Bitmap(a | b),
        }
    }

    /// Intersection of two sets (attenuation keeps only common types).
    pub fn intersect(self, other: MsgTypeSet) -> MsgTypeSet {
        match (self, other) {
            (MsgTypeSet::All, x) | (x, MsgTypeSet::All) => x,
            (MsgTypeSet::Bitmap(a), MsgTypeSet::Bitmap(b)) => MsgTypeSet::Bitmap(a & b),
        }
    }

    /// True if no type is allowed.
    pub fn is_empty(self) -> bool {
        self == MsgTypeSet::Bitmap(0)
    }

    /// Renders the Fig. 3-style bitmap string of the lowest `width` types,
    /// most-significant (highest type) first.
    pub fn bitmap_string(self, width: u32) -> String {
        (0..width)
            .rev()
            .map(|i| {
                if self.contains(MsgType::new(i)) {
                    '1'
                } else {
                    '0'
                }
            })
            .collect()
    }
}

impl fmt::Display for MsgTypeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgTypeSet::All => write!(f, "*"),
            MsgTypeSet::Bitmap(_) => write!(f, "{}", self.bitmap_string(8)),
        }
    }
}

/// The kernel-resident mandatory access-control matrix.
///
/// "We implemented the ACM using a sparse matrix data structure for fast
/// lookup and space efficiency" (§III-B) — here a `BTreeMap` keyed by the
/// `(sender, receiver)` pair, which keeps iteration deterministic for the
/// experiments' printed tables.
///
/// The matrix is built once at boot, mirroring the paper's design where
/// the ACM is compiled together with the kernel binary and "cannot be
/// easily modified without recompiling the kernel source code." The
/// *runtime churn* extension ([`AccessControlMatrix::grant_types`],
/// [`AccessControlMatrix::attenuate_types`],
/// [`AccessControlMatrix::revoke_channel`]) deliberately relaxes that:
/// delegation/revocation RPCs through PM mutate rows mid-run so the race
/// detector can observe the window between an admission check and the
/// delivery that relied on it. Every mutation is expected to be paired
/// with a [`crate::delegation::DelegationLog`] record for provenance.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessControlMatrix {
    cells: BTreeMap<(AcId, AcId), MsgTypeSet>,
}

impl AccessControlMatrix {
    /// Starts building a matrix.
    pub fn builder() -> AcmBuilder {
        AcmBuilder::default()
    }

    /// An empty matrix: every transfer is denied.
    pub fn deny_all() -> Self {
        AccessControlMatrix::default()
    }

    /// The kernel-side check, consulted on every message transfer.
    pub fn check(&self, sender: AcId, receiver: AcId, mtype: MsgType) -> Decision {
        match self.cells.get(&(sender, receiver)) {
            None => Decision::Deny(DenyReason::NoChannel),
            Some(set) if set.contains(mtype) => Decision::Allow,
            Some(_) => Decision::Deny(DenyReason::TypeNotAllowed),
        }
    }

    /// The permitted type set for a directed pair, if a channel exists.
    pub fn channel(&self, sender: AcId, receiver: AcId) -> Option<MsgTypeSet> {
        self.cells.get(&(sender, receiver)).copied()
    }

    /// Every `(sender, receiver, types)` entry in deterministic order.
    pub fn entries(&self) -> impl Iterator<Item = (AcId, AcId, MsgTypeSet)> + '_ {
        self.cells.iter().map(|(&(s, r), &set)| (s, r, set))
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All distinct identities appearing in the matrix, ascending.
    pub fn identities(&self) -> Vec<AcId> {
        let mut ids: Vec<AcId> = self.cells.keys().flat_map(|&(s, r)| [s, r]).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Runtime churn: merges `types` into the `sender → receiver` row,
    /// creating it if absent (a delegation/regrant).
    pub fn grant_types(&mut self, sender: AcId, receiver: AcId, types: MsgTypeSet) {
        let entry = self
            .cells
            .entry((sender, receiver))
            .or_insert(MsgTypeSet::EMPTY);
        *entry = entry.union(types);
    }

    /// Runtime churn: narrows the `sender → receiver` row to the
    /// intersection with `keep`. Returns false if no row exists.
    pub fn attenuate_types(&mut self, sender: AcId, receiver: AcId, keep: MsgTypeSet) -> bool {
        match self.cells.get_mut(&(sender, receiver)) {
            Some(set) => {
                *set = set.intersect(keep);
                true
            }
            None => false,
        }
    }

    /// Runtime churn: removes the `sender → receiver` row entirely.
    /// Returns false if no row existed.
    pub fn revoke_channel(&mut self, sender: AcId, receiver: AcId) -> bool {
        self.cells.remove(&(sender, receiver)).is_some()
    }

    /// Renders the matrix as a Fig. 3-style table of bitmap cells over the
    /// lowest `width` message types.
    pub fn render_table(&self, width: u32) -> String {
        let ids = self.identities();
        let mut out = String::new();
        out.push_str("sender\\receiver");
        for r in &ids {
            out.push_str(&format!("{:>10}", r.to_string()));
        }
        out.push('\n');
        for s in &ids {
            out.push_str(&format!("{:<15}", s.to_string()));
            for r in &ids {
                let cell = match self.channel(*s, *r) {
                    Some(set) => set.bitmap_string(width),
                    None => "-".repeat(width as usize),
                };
                out.push_str(&format!("{cell:>10}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Builder for [`AccessControlMatrix`].
///
/// Mirrors the workflow of the paper's AADL-to-C compiler, which "traverses
/// AADL models, extracts various processes and their unique ac_id, and
/// generates the matrix data structure" — `bas-aadl`'s ACM backend drives
/// exactly this builder.
#[derive(Debug, Clone, Default)]
pub struct AcmBuilder {
    cells: BTreeMap<(AcId, AcId), MsgTypeSet>,
}

impl AcmBuilder {
    /// Permits `sender → receiver` messages of the given types (merged with
    /// any previously allowed types for the pair).
    pub fn allow<I: IntoIterator<Item = MsgType>>(
        mut self,
        sender: AcId,
        receiver: AcId,
        types: I,
    ) -> Self {
        let set = MsgTypeSet::of(types);
        self.merge(sender, receiver, set);
        self
    }

    /// Permits every message type on `sender → receiver`.
    pub fn allow_all_types(mut self, sender: AcId, receiver: AcId) -> Self {
        self.merge(sender, receiver, MsgTypeSet::All);
        self
    }

    /// Permits acknowledgment (type 0) messages in both directions between
    /// `a` and `b` — the paper's "we want all confirm messages between
    /// processes be allowed".
    pub fn allow_ack_between(mut self, a: AcId, b: AcId) -> Self {
        self.merge(a, b, MsgTypeSet::of([MsgType::ACK]));
        self.merge(b, a, MsgTypeSet::of([MsgType::ACK]));
        self
    }

    fn merge(&mut self, sender: AcId, receiver: AcId, set: MsgTypeSet) {
        let entry = self
            .cells
            .entry((sender, receiver))
            .or_insert(MsgTypeSet::EMPTY);
        *entry = entry.union(set);
    }

    /// Finalizes the matrix.
    pub fn build(self) -> AccessControlMatrix {
        AccessControlMatrix { cells: self.cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ac(n: u32) -> AcId {
        AcId::new(n)
    }
    fn m(n: u32) -> MsgType {
        MsgType::new(n)
    }

    #[test]
    fn deny_all_denies_everything() {
        let acm = AccessControlMatrix::deny_all();
        assert_eq!(
            acm.check(ac(1), ac(2), m(0)),
            Decision::Deny(DenyReason::NoChannel)
        );
        assert!(acm.is_empty());
    }

    #[test]
    fn allow_is_directional() {
        let acm = AccessControlMatrix::builder()
            .allow(ac(1), ac(2), [m(5)])
            .build();
        assert!(acm.check(ac(1), ac(2), m(5)).is_allowed());
        assert_eq!(
            acm.check(ac(2), ac(1), m(5)),
            Decision::Deny(DenyReason::NoChannel)
        );
    }

    #[test]
    fn type_outside_set_is_denied_with_reason() {
        let acm = AccessControlMatrix::builder()
            .allow(ac(1), ac(2), [m(0), m(2)])
            .build();
        assert_eq!(
            acm.check(ac(1), ac(2), m(1)),
            Decision::Deny(DenyReason::TypeNotAllowed)
        );
    }

    #[test]
    fn repeated_allow_merges_types() {
        let acm = AccessControlMatrix::builder()
            .allow(ac(1), ac(2), [m(0)])
            .allow(ac(1), ac(2), [m(3)])
            .build();
        assert!(acm.check(ac(1), ac(2), m(0)).is_allowed());
        assert!(acm.check(ac(1), ac(2), m(3)).is_allowed());
        assert_eq!(acm.len(), 1, "merged into one cell");
    }

    #[test]
    fn allow_all_types_is_wildcard() {
        let acm = AccessControlMatrix::builder()
            .allow_all_types(ac(1), ac(2))
            .build();
        assert!(acm.check(ac(1), ac(2), m(63)).is_allowed());
        assert!(acm.check(ac(1), ac(2), m(7)).is_allowed());
    }

    #[test]
    fn ack_between_is_symmetric_and_type0_only() {
        let acm = AccessControlMatrix::builder()
            .allow_ack_between(ac(1), ac(2))
            .build();
        assert!(acm.check(ac(1), ac(2), MsgType::ACK).is_allowed());
        assert!(acm.check(ac(2), ac(1), MsgType::ACK).is_allowed());
        assert!(!acm.check(ac(1), ac(2), m(1)).is_allowed());
    }

    #[test]
    fn bitmap_string_matches_fig3_notation() {
        let set = MsgTypeSet::of([m(0), m(2), m(3)]);
        assert_eq!(set.bitmap_string(4), "1101");
        assert_eq!(MsgTypeSet::of([m(0), m(1)]).bitmap_string(4), "0011");
        assert_eq!(MsgTypeSet::EMPTY.bitmap_string(4), "0000");
    }

    #[test]
    fn union_with_all_is_all() {
        assert_eq!(MsgTypeSet::All.union(MsgTypeSet::EMPTY), MsgTypeSet::All);
        assert_eq!(
            MsgTypeSet::of([m(1)]).union(MsgTypeSet::of([m(2)])),
            MsgTypeSet::of([m(1), m(2)])
        );
    }

    #[test]
    #[should_panic(expected = "out of bitmap range")]
    fn types_beyond_63_rejected() {
        let _ = MsgTypeSet::of([m(64)]);
    }

    #[test]
    fn identities_collects_both_sides_sorted() {
        let acm = AccessControlMatrix::builder()
            .allow(ac(102), ac(100), [m(0)])
            .allow(ac(100), ac(101), [m(1)])
            .build();
        assert_eq!(acm.identities(), vec![ac(100), ac(101), ac(102)]);
    }

    #[test]
    fn render_table_contains_every_identity() {
        let acm = AccessControlMatrix::builder()
            .allow(ac(1), ac(2), [m(0)])
            .build();
        let table = acm.render_table(4);
        assert!(table.contains("ac1"));
        assert!(table.contains("ac2"));
        assert!(table.contains("0001"));
    }

    #[test]
    fn intersect_narrows_and_all_is_identity() {
        assert_eq!(
            MsgTypeSet::of([m(1), m(2)]).intersect(MsgTypeSet::of([m(2), m(3)])),
            MsgTypeSet::of([m(2)])
        );
        assert_eq!(
            MsgTypeSet::All.intersect(MsgTypeSet::of([m(5)])),
            MsgTypeSet::of([m(5)])
        );
        assert_eq!(MsgTypeSet::All.intersect(MsgTypeSet::All), MsgTypeSet::All);
    }

    #[test]
    fn runtime_churn_grant_attenuate_revoke() {
        let mut acm = AccessControlMatrix::builder()
            .allow(ac(1), ac(2), [m(0), m(4)])
            .build();
        // Attenuate to ACK-only: type 4 now denied, type 0 still allowed.
        assert!(acm.attenuate_types(ac(1), ac(2), MsgTypeSet::of([m(0)])));
        assert!(acm.check(ac(1), ac(2), m(0)).is_allowed());
        assert_eq!(
            acm.check(ac(1), ac(2), m(4)),
            Decision::Deny(DenyReason::TypeNotAllowed)
        );
        // Regrant restores the type.
        acm.grant_types(ac(1), ac(2), MsgTypeSet::of([m(4)]));
        assert!(acm.check(ac(1), ac(2), m(4)).is_allowed());
        // Revoke removes the whole row.
        assert!(acm.revoke_channel(ac(1), ac(2)));
        assert_eq!(
            acm.check(ac(1), ac(2), m(0)),
            Decision::Deny(DenyReason::NoChannel)
        );
        assert!(!acm.revoke_channel(ac(1), ac(2)));
        assert!(!acm.attenuate_types(ac(1), ac(2), MsgTypeSet::EMPTY));
        // Grant on a missing row creates it (delegation).
        acm.grant_types(ac(3), ac(2), MsgTypeSet::of([m(1)]));
        assert!(acm.check(ac(3), ac(2), m(1)).is_allowed());
    }

    #[test]
    fn debug_output_shows_type_sets() {
        let acm = AccessControlMatrix::builder()
            .allow(ac(1), ac(2), [m(0), m(3)])
            .allow_all_types(ac(2), ac(3))
            .build();
        let text = format!("{acm:?}");
        assert!(text.contains("Bitmap") || text.contains("All"));
    }
}
