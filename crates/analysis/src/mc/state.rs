//! The abstract scenario state the model checker explores.
//!
//! The state is a small value type: channel contents are capacity-1
//! slots (a fresh write overwrites a pending message, so "who wins the
//! race" is decided by the interleaving, which is exactly what the
//! checker enumerates), temperature is a two-valued abstraction of the
//! plant (in band / above the alarm threshold), and all counters are
//! saturating small integers. The whole state packs injectively into one
//! `u64` ([`McState::pack`]), which is the explorer's exact
//! deduplication key.

pub use bas_attack::program::{AttackOp, Proc};

/// Who a pending sensor reading claims to be from. The kernel stamps the
/// true origin where the platform supports it; the controller's
/// authentication check consumes this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadingOrigin {
    /// The real sensor driver.
    Sensor,
    /// Injected by the web interface.
    Web,
}

/// A pending web → controller message (capacity-1 slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WebMsg {
    /// Junk flood traffic (malformed; the controller discards it).
    Junk,
    /// An out-of-range setpoint (the tamper payload).
    TamperSetpoint,
    /// A replayed in-range but unauthorized setpoint.
    ReplaySetpoint,
}

/// One atomic transition of the abstract scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum McAction {
    /// A benign process takes its (deterministic) local step.
    Step(Proc),
    /// The attacker executes one primitive from the web position.
    Attack(AttackOp),
    /// The environment advances: plant physics + the round barrier.
    EnvTick,
}

impl std::fmt::Display for McAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McAction::Step(p) => write!(f, "step:{p}"),
            McAction::Attack(op) => write!(f, "attack:{op}"),
            McAction::EnvTick => f.write_str("tick"),
        }
    }
}

/// Violation/fact flags accumulated monotonically in the state.
pub mod flags {
    /// The attack mechanism got past its enforcement point at least once.
    pub const DELIVERED: u8 = 1 << 0;
    /// The Policy-IR verdict and the kernel-artifact verdict disagreed
    /// on some operation — the cross-validation property.
    pub const GATE_MISMATCH: u8 = 1 << 1;
    /// A fork was admitted beyond the configured quota.
    pub const QUOTA_BREACH: u8 = 1 << 2;
    /// A device register was written by a subject that is not its driver.
    pub const UNAUTH_DEV_WRITE: u8 = 1 << 3;
    /// A kernel object was reached through a type-confused handle.
    pub const MASQUERADE: u8 = 1 << 4;
    /// A derivation-breached capability (amplified / revocation-leaked /
    /// expired-but-live) was honored.
    pub const DERIVATION_BREACH: u8 = 1 << 5;
    /// A message admitted before a revoke was consumed after it — the
    /// kernel honored a stale delivery (capability TOCTOU race).
    pub const CAP_RACE: u8 = 1 << 6;
}

/// The explored state. Field order matters only for derived `Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct McState {
    /// Liveness bits (see [`Proc::bit`]; web liveness is not tracked —
    /// the attacker never dies).
    pub alive: u8,
    /// Which processes have taken their action this round.
    pub moved: u8,
    /// Environment ticks so far.
    pub round: u8,
    /// Plant temperature above the alarm threshold.
    pub temp_hot: bool,
    /// Consecutive env ticks with `temp_hot` and the alarm device off —
    /// the bounded-response counter.
    pub hot_unalarmed: u8,
    /// Fan device register.
    pub fan_dev: bool,
    /// Alarm device register.
    pub alarm_dev: bool,
    /// Pending sensor reading: (claims hot?, origin).
    pub reading: Option<(bool, ReadingOrigin)>,
    /// Pending web → controller message.
    pub web_msg: Option<WebMsg>,
    /// Pending fan command (on?).
    pub fan_cmd: Option<bool>,
    /// Pending alarm command (on?).
    pub alarm_cmd: Option<bool>,
    /// The controller's accepted belief about the temperature.
    pub believes_hot: bool,
    /// An unauthorized setpoint was accepted: the plant reference has
    /// diverged from the authorized one (the replay compromise).
    pub diverged: bool,
    /// Whether the sensor→controller send right currently stands (the
    /// churn attacker flips this with [`AttackOp::Revoke`] /
    /// [`AttackOp::Regrant`]).
    pub cap_ok: bool,
    /// Children forked by the attacker (saturating).
    pub forks: u8,
    /// Remaining attacker actions.
    pub budget: u8,
    /// Monotone fact flags (see [`flags`]).
    pub flags: u8,
}

impl McState {
    /// The initial state: everyone alive, plant in band, channels empty.
    pub fn initial(budget: u8) -> McState {
        McState {
            alive: Proc::CRITICAL.iter().map(|p| p.bit()).sum(),
            moved: 0,
            round: 0,
            temp_hot: false,
            hot_unalarmed: 0,
            fan_dev: false,
            alarm_dev: false,
            reading: None,
            web_msg: None,
            fan_cmd: None,
            alarm_cmd: None,
            believes_hot: false,
            diverged: false,
            cap_ok: true,
            forks: 0,
            budget,
            flags: 0,
        }
    }

    /// Whether `p` is alive.
    pub fn is_alive(&self, p: Proc) -> bool {
        self.alive & p.bit() != 0
    }

    /// Whether `p` has moved this round.
    pub fn has_moved(&self, p: Proc) -> bool {
        self.moved & p.bit() != 0
    }

    /// Whether every living critical process has taken its turn.
    pub fn round_complete(&self) -> bool {
        let required = self.alive & (Proc::CRITICAL.iter().map(|p| p.bit()).sum::<u8>());
        self.moved & required == required
    }

    /// Whether any critical process has been lost.
    pub fn critical_lost(&self) -> bool {
        Proc::CRITICAL.iter().any(|p| !self.is_alive(*p))
    }

    /// Packs the state into one `u64`, injectively, so the explorer
    /// deduplicates on the key exactly. Low bits first: `alive` 5,
    /// `moved` 5, `round`, `hot_unalarmed`, `forks`, `budget` 8 each,
    /// `flags` 7, `reading` 3, `web_msg`, `fan_cmd`, `alarm_cmd` 2 each,
    /// then the six booleans — 64 bits exactly.
    pub fn pack(&self) -> u64 {
        debug_assert!(self.alive < 32, "alive is a 5-process mask");
        debug_assert!(self.moved < 32, "moved is a 5-process mask");
        debug_assert!(self.flags < 128, "flags holds 7 bits");
        let reading = match self.reading {
            None => 0,
            Some((hot, ReadingOrigin::Sensor)) => 1 + u64::from(hot),
            Some((hot, ReadingOrigin::Web)) => 3 + u64::from(hot),
        };
        let web_msg = match self.web_msg {
            None => 0,
            Some(WebMsg::Junk) => 1,
            Some(WebMsg::TamperSetpoint) => 2,
            Some(WebMsg::ReplaySetpoint) => 3,
        };
        let cmd = |c: Option<bool>| c.map_or(0, |on| 1 + u64::from(on));
        let fields: [(u64, u32); 17] = [
            (self.alive.into(), 5),
            (self.moved.into(), 5),
            (self.round.into(), 8),
            (self.hot_unalarmed.into(), 8),
            (self.forks.into(), 8),
            (self.budget.into(), 8),
            (self.flags.into(), 7),
            (reading, 3),
            (web_msg, 2),
            (cmd(self.fan_cmd), 2),
            (cmd(self.alarm_cmd), 2),
            (self.temp_hot.into(), 1),
            (self.fan_dev.into(), 1),
            (self.alarm_dev.into(), 1),
            (self.believes_hot.into(), 1),
            (self.diverged.into(), 1),
            (self.cap_ok.into(), 1),
        ];
        let (key, width) = fields.iter().fold((0u64, 0u32), |(key, shift), &(v, w)| {
            (key | v << shift, shift + w)
        });
        debug_assert_eq!(width, 64);
        key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_is_healthy() {
        let s = McState::initial(6);
        assert!(!s.critical_lost());
        assert!(!s.round_complete());
        assert!(s.is_alive(Proc::Ctrl));
        assert!(!s.has_moved(Proc::Ctrl));
    }

    #[test]
    fn round_completes_without_dead_processes() {
        let mut s = McState::initial(6);
        s.alive &= !Proc::Ctrl.bit();
        s.moved = Proc::Sensor.bit() | Proc::Heater.bit() | Proc::Alarm.bit();
        assert!(s.round_complete(), "dead processes are not awaited");
        assert!(s.critical_lost());
    }

    #[test]
    fn proc_bits_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for p in [
            Proc::Sensor,
            Proc::Ctrl,
            Proc::Heater,
            Proc::Alarm,
            Proc::Web,
        ] {
            assert!(seen.insert(p.bit()));
        }
    }
}
