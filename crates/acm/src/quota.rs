//! Per-identity syscall quotas — the paper's proposed fork-bomb defense.
//!
//! §IV-D.2: "because web interface process has the privilege to fork
//! children processes, it can potentially launch a fork bomb to eat up
//! system resources. [...] This issue could be solved by using the ACM to
//! give each system call a quota. We will explore this in future research."
//!
//! The reproduction implements that extension so the `exp_ablation_acm`
//! experiment can show the fork bomb succeeding without quotas and being
//! contained with them.

use std::collections::BTreeMap;
use std::fmt;

use crate::id::AcId;

/// Classes of system calls a quota can bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyscallClass {
    /// Process creation (`fork`, `fork2`).
    Fork,
    /// Process termination requests against other processes (`kill`).
    Kill,
    /// Message sends (bounds flooding).
    Send,
    /// Device register writes.
    DeviceWrite,
}

impl fmt::Display for SyscallClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyscallClass::Fork => write!(f, "fork"),
            SyscallClass::Kill => write!(f, "kill"),
            SyscallClass::Send => write!(f, "send"),
            SyscallClass::DeviceWrite => write!(f, "device-write"),
        }
    }
}

/// Error returned when a charge would exceed the identity's quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaExceeded {
    /// The identity that hit its limit.
    pub ac_id: AcId,
    /// The syscall class that was limited.
    pub class: SyscallClass,
    /// The configured limit.
    pub limit: u64,
}

impl fmt::Display for QuotaExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} exceeded {} quota of {}",
            self.ac_id, self.class, self.limit
        )
    }
}

impl std::error::Error for QuotaExceeded {}

/// Mutable usage-accounting table over static limits.
///
/// Identities without a configured limit for a class are unlimited,
/// matching the opt-in character of the paper's proposal.
///
/// ```
/// use bas_acm::id::AcId;
/// use bas_acm::quota::{QuotaTable, SyscallClass};
///
/// let mut quotas = QuotaTable::new();
/// quotas.set_limit(AcId::new(104), SyscallClass::Fork, 2);
/// assert!(quotas.charge(AcId::new(104), SyscallClass::Fork).is_ok());
/// assert!(quotas.charge(AcId::new(104), SyscallClass::Fork).is_ok());
/// assert!(quotas.charge(AcId::new(104), SyscallClass::Fork).is_err());
/// // Other identities are unaffected.
/// assert!(quotas.charge(AcId::new(101), SyscallClass::Fork).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuotaTable {
    limits: BTreeMap<(AcId, SyscallClass), u64>,
    used: BTreeMap<(AcId, SyscallClass), u64>,
}

impl QuotaTable {
    /// Creates a table with no limits (everything unlimited).
    pub fn new() -> Self {
        QuotaTable::default()
    }

    /// Sets the lifetime limit for one identity and class.
    pub fn set_limit(&mut self, ac_id: AcId, class: SyscallClass, limit: u64) {
        self.limits.insert((ac_id, class), limit);
    }

    /// The configured limit, if any.
    pub fn limit(&self, ac_id: AcId, class: SyscallClass) -> Option<u64> {
        self.limits.get(&(ac_id, class)).copied()
    }

    /// Usage charged so far.
    pub fn used(&self, ac_id: AcId, class: SyscallClass) -> u64 {
        self.used.get(&(ac_id, class)).copied().unwrap_or(0)
    }

    /// Attempts to charge one use.
    ///
    /// # Errors
    ///
    /// Returns [`QuotaExceeded`] (without charging) if the identity has a
    /// limit for `class` and has already used it up.
    pub fn charge(&mut self, ac_id: AcId, class: SyscallClass) -> Result<(), QuotaExceeded> {
        if let Some(&limit) = self.limits.get(&(ac_id, class)) {
            let used = self.used.entry((ac_id, class)).or_insert(0);
            if *used >= limit {
                return Err(QuotaExceeded {
                    ac_id,
                    class,
                    limit,
                });
            }
            *used += 1;
        }
        Ok(())
    }

    /// Clears usage counters (limits are kept).
    pub fn reset_usage(&mut self) {
        self.used.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ac(n: u32) -> AcId {
        AcId::new(n)
    }

    #[test]
    fn unlimited_by_default() {
        let mut q = QuotaTable::new();
        for _ in 0..10_000 {
            q.charge(ac(1), SyscallClass::Send).unwrap();
        }
        // Usage of unlimited classes is not tracked.
        assert_eq!(q.used(ac(1), SyscallClass::Send), 0);
    }

    #[test]
    fn limit_enforced_exactly() {
        let mut q = QuotaTable::new();
        q.set_limit(ac(5), SyscallClass::Fork, 3);
        for _ in 0..3 {
            q.charge(ac(5), SyscallClass::Fork).unwrap();
        }
        let err = q.charge(ac(5), SyscallClass::Fork).unwrap_err();
        assert_eq!(err.limit, 3);
        assert_eq!(err.class, SyscallClass::Fork);
        assert_eq!(
            q.used(ac(5), SyscallClass::Fork),
            3,
            "failed charge not counted"
        );
    }

    #[test]
    fn limits_are_per_identity_and_class() {
        let mut q = QuotaTable::new();
        q.set_limit(ac(1), SyscallClass::Fork, 0);
        assert!(q.charge(ac(1), SyscallClass::Fork).is_err());
        assert!(q.charge(ac(1), SyscallClass::Kill).is_ok());
        assert!(q.charge(ac(2), SyscallClass::Fork).is_ok());
    }

    #[test]
    fn reset_usage_restores_headroom() {
        let mut q = QuotaTable::new();
        q.set_limit(ac(1), SyscallClass::Kill, 1);
        q.charge(ac(1), SyscallClass::Kill).unwrap();
        assert!(q.charge(ac(1), SyscallClass::Kill).is_err());
        q.reset_usage();
        assert!(q.charge(ac(1), SyscallClass::Kill).is_ok());
        assert_eq!(q.limit(ac(1), SyscallClass::Kill), Some(1));
    }

    #[test]
    fn error_displays_context() {
        let e = QuotaExceeded {
            ac_id: ac(104),
            class: SyscallClass::Fork,
            limit: 2,
        };
        let s = format!("{e}");
        assert!(s.contains("ac104"));
        assert!(s.contains("fork"));
        assert!(s.contains('2'));
    }
}
