//! The scenario transition relation the checker explores.
//!
//! [`ScenarioModel`] implements [`StepSemantics`] for one matrix cell
//! `(platform, attacker, attack)`: the four critical processes take one
//! deterministic step per round, the attacker interleaves up to one
//! primitive per round from the web position, and an environment tick
//! closes the round with plant physics. The primitives an attack offers
//! are its program's ops ([`AttackId::program`]), the same alphabet the
//! dynamic harness lowers through each platform's binding
//! ([`bas_attack::bind`]); the checker interleaves the ops freely and
//! ignores the program's pace and bound. Every IPC send, kill, fork and
//! device access is adjudicated **twice** — by the Policy IR and by the
//! kernel-artifact [`KernelGate`] — and any disagreement raises the
//! [`flags::GATE_MISMATCH`] violation on the transition that performs
//! the operation, so exploration cross-validates the static lowering
//! against the enforcement artifacts on every reachable interleaving.
//! Both verdicts depend on the query alone, never on the state, so each
//! distinct query is adjudicated once per cell into an [`Adjudication`]
//! table that transitions index by [`Proc::index`].
//!
//! Channel slots hold the *last admitted-and-acceptable* message
//! (mailbox semantics: the real servers drain their queues each
//! activation, so a message the application would reject in-band cannot
//! mask a valid one — but two acceptable writes race, and the
//! interleaving decides the winner; that race is exactly what the
//! checker enumerates).
//!
//! The transition graph is a DAG: within a round the `moved` mask grows
//! strictly, and the tick strictly increases `round`. This is what makes
//! the ample-set cycle condition (C3) vacuous — see [`super::explore`](mod@super::explore).

use bas_attack::{AttackId, AttackerModel};
use bas_core::platform::linux::UidScheme;
use bas_core::proto::{MT_ALARM_CMD, MT_FAN_CMD, MT_SENSOR_READING, MT_SETPOINT};
use bas_core::scenario::Platform;
use bas_core::semantics::StepSemantics;
use bas_sim::device::DeviceId;

use super::gate::KernelGate;
use super::state::{flags, AttackOp, McAction, McState, Proc, ReadingOrigin, WebMsg};
use crate::flow::{self, CapId};
use crate::ir::{ObjectId, PolicyModel, Roles};
use crate::scenario::model_for;

/// The message types the transition relation sends, in table order.
pub const MTYPES: [u32; 4] = [MT_SENSOR_READING, MT_SETPOINT, MT_FAN_CMD, MT_ALARM_CMD];

/// The devices the transition relation touches, in table order.
pub const DEVICES: [DeviceId; 3] = [DeviceId::TEMP_SENSOR, DeviceId::FAN, DeviceId::ALARM];

fn mtype_slot(mtype: u32) -> usize {
    match mtype {
        MT_SENSOR_READING => 0,
        MT_SETPOINT => 1,
        MT_FAN_CMD => 2,
        MT_ALARM_CMD => 3,
        _ => unreachable!("message type outside the adjudication table"),
    }
}

fn device_slot(dev: DeviceId) -> usize {
    match dev {
        DeviceId::TEMP_SENSOR => 0,
        DeviceId::FAN => 1,
        DeviceId::ALARM => 2,
        _ => unreachable!("device outside the adjudication table"),
    }
}

fn role(roles: &Roles, p: Proc) -> &str {
    match p {
        Proc::Sensor => &roles.sensor,
        Proc::Ctrl => &roles.controller,
        Proc::Heater => &roles.heater,
        Proc::Alarm => &roles.alarm,
        Proc::Web => &roles.web,
    }
}

/// One operation's dual adjudication: the kernel's verdict, which takes
/// effect, and whether the Policy IR disagreed with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// The kernel artifact admits the operation.
    pub kernel: bool,
    /// The Policy IR's verdict differs from the kernel's.
    pub mismatch: bool,
}

impl Verdict {
    fn judge(ir: bool, kernel: bool) -> Verdict {
        Verdict {
            kernel,
            mismatch: ir != kernel,
        }
    }

    /// The Policy IR's verdict.
    pub fn ir(self) -> bool {
        self.kernel != self.mismatch
    }
}

/// Every query the transition relation can ask, answered once per cell
/// by both the Policy IR and the [`KernelGate`]. Processes index by
/// [`Proc::index`], message types by [`MTYPES`] order and devices by
/// [`DEVICES`] order; every arm of the transition relation reads this
/// table instead of consulting the IR or the gate.
pub struct Adjudication {
    /// `[sender][receiver][mtype]`.
    send: [[[Verdict; 4]; 5]; 5],
    /// `[subject][device][write]`.
    device: [[[Verdict; 2]; 3]; 5],
    /// The web position killing `[victim]`.
    kill: [Verdict; 5],
    /// The web position forking.
    fork: Verdict,
    /// The web position's fork quota in the IR (absent = unlimited).
    fork_quota: Option<u64>,
    /// Blind enumeration reaches more handles than web legitimately
    /// holds.
    probe_reaches: bool,
    /// `app_accepts(web, [receiver], [mtype], [in_range])`.
    web_accepts: [[[bool; 2]; 4]; 5],
    /// The mechanism-delivery judgment for web `[receiver][mtype][in_range]`.
    web_mech: [[[bool; 2]; 4]; 5],
}

impl Adjudication {
    /// Adjudicates every query against `ir` and `gate`.
    pub fn new(ir: &PolicyModel, gate: &KernelGate) -> Adjudication {
        let name = |p: Proc| role(&ir.roles, p);
        let web = name(Proc::Web);
        let mut adj = Adjudication {
            send: Default::default(),
            device: Default::default(),
            kill: Default::default(),
            fork: Verdict::judge(ir.can_fork(web), gate.allows_fork(web)),
            fork_quota: ir.fork_quota.get(web).copied(),
            probe_reaches: ir.enumerable_handles.get(web).copied().unwrap_or(0)
                > ir.legitimate_handles.get(web).copied().unwrap_or(0),
            web_accepts: Default::default(),
            web_mech: Default::default(),
        };
        for s in Proc::ALL {
            for r in Proc::ALL {
                for (m, &mtype) in MTYPES.iter().enumerate() {
                    adj.send[s.index()][r.index()][m] = Verdict::judge(
                        ir.delivery_channel(name(s), name(r), mtype).is_some(),
                        gate.allows_send(name(s), name(r), mtype),
                    );
                }
            }
            for (d, &dev) in DEVICES.iter().enumerate() {
                for write in [false, true] {
                    adj.device[s.index()][d][usize::from(write)] = Verdict::judge(
                        ir.device_channel(name(s), dev, write).is_some(),
                        gate.allows_device(name(s), dev, write),
                    );
                }
            }
        }
        // The web position's own queries: kill a victim, and how a
        // receiver's application and mechanism treat a web message.
        for r in Proc::ALL {
            let (ri, target) = (r.index(), name(r));
            adj.kill[ri] = Verdict::judge(ir.can_kill(web, target), gate.allows_kill(web, target));
            for (m, &mtype) in MTYPES.iter().enumerate() {
                for in_range in [false, true] {
                    adj.web_accepts[ri][m][usize::from(in_range)] =
                        ir.app_accepts(web, target, mtype, in_range);
                    adj.web_mech[ri][m][usize::from(in_range)] =
                        ir.mechanism_delivers(web, target, mtype, in_range);
                }
            }
        }
        adj
    }

    /// May `sender` deliver `mtype` to `receiver`?
    pub fn send(&self, sender: Proc, receiver: Proc, mtype: u32) -> Verdict {
        self.send[sender.index()][receiver.index()][mtype_slot(mtype)]
    }

    /// May `subject` access `dev` in the given direction?
    pub fn device(&self, subject: Proc, dev: DeviceId, write: bool) -> Verdict {
        self.device[subject.index()][device_slot(dev)][usize::from(write)]
    }

    /// May the web position terminate `victim`?
    pub fn kill(&self, victim: Proc) -> Verdict {
        self.kill[victim.index()]
    }

    /// May the web position create a process?
    pub fn fork(&self) -> Verdict {
        self.fork
    }

    /// The web position's fork quota (`None` = unlimited).
    pub fn fork_quota(&self) -> Option<u64> {
        self.fork_quota
    }

    /// Whether handle probing from the web position reaches handles it
    /// does not legitimately hold.
    pub fn probe_reaches(&self) -> bool {
        self.probe_reaches
    }

    /// Whether the application at `receiver` accepts a web-sent `mtype`
    /// message ([`PolicyModel::app_accepts`]).
    pub fn app_accepts(&self, receiver: Proc, mtype: u32, in_range: bool) -> bool {
        self.web_accepts[receiver.index()][mtype_slot(mtype)][usize::from(in_range)]
    }

    /// Whether a web-sent `mtype` message gets past its enforcement point
    /// into `receiver` ([`PolicyModel::mechanism_delivers`]).
    pub fn mech_delivers(&self, receiver: Proc, mtype: u32, in_range: bool) -> bool {
        self.web_mech[receiver.index()][mtype_slot(mtype)][usize::from(in_range)]
    }
}

/// Exploration bounds for one cell.
#[derive(Debug, Clone, Copy)]
pub struct McBounds {
    /// Rounds explored (environment ticks).
    pub max_rounds: u8,
    /// Bounded-response bound `k`: the alarm must be on within `k` ticks
    /// of the plant crossing the threshold; `hot_unalarmed > k` violates.
    pub response_bound: u8,
    /// Attacker actions available across the whole run.
    pub attacker_budget: u8,
    /// The tick at which the plant crosses the alarm threshold (a heat
    /// burst beyond the fan's authority, as in the dynamic harness).
    pub burst_round: u8,
    /// Saturation cap on attacker children (bounds the fork-bomb state).
    pub fork_cap: u8,
}

impl Default for McBounds {
    fn default() -> McBounds {
        // Healthy worst-case propagation sensor → controller → driver
        // holds the alarm off for 3 ticks after the burst; k = 4 gives
        // one tick of slack, so only attacker interference can violate.
        // Budget 6 > k + 1 lets the attacker sustain a masking campaign
        // long enough to cross the bound within 7 rounds.
        McBounds {
            max_rounds: 7,
            response_bound: 4,
            attacker_budget: 6,
            burst_round: 2,
            fork_cap: 3,
        }
    }
}

/// What exercising a seeded (breached or masquerading) capability does
/// to the plant, determined by the object it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapEffect {
    /// Force the fan device register off.
    ForceFan,
    /// Force the alarm device register off.
    ForceAlarm,
    /// Corrupt controller state (the reference diverges).
    Corrupt,
}

/// A capability the derivation graph hands the attacker: the flow
/// analysis found it anomalous, and the checker offers one attacker
/// primitive that exercises it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededCap {
    /// Whether the kernel would actually honor the handle (masquerading
    /// is stopped where handles are unguessable).
    pub exploitable: bool,
    /// The plant effect if honored.
    pub effect: CapEffect,
}

/// One matrix cell as an explicit transition relation.
pub struct ScenarioModel {
    /// The platform under analysis.
    pub platform: Platform,
    /// The attacker model (A1 code-exec / A2 root).
    pub attacker: AttackerModel,
    /// The attack mounted from the web position.
    pub attack: AttackId,
    /// The Linux uid scheme (ignored elsewhere).
    pub scheme: UidScheme,
    /// Exploration bounds.
    pub bounds: McBounds,
    ir: PolicyModel,
    adj: Adjudication,
    /// A type-confused handle in the attacker's possession, if any.
    masq: Option<SeededCap>,
    /// A derivation-breached capability in the attacker's possession.
    derived: Option<SeededCap>,
    /// Whether the attacker may churn the sensor→controller right
    /// ([`AttackOp::Revoke`] / [`AttackOp::Regrant`]). Off in the
    /// 54-cell matrix, so its verdicts are unchanged.
    churn: bool,
}

impl ScenarioModel {
    /// Builds the cell model with default bounds.
    pub fn new(
        platform: Platform,
        attacker: AttackerModel,
        attack: AttackId,
        scheme: UidScheme,
    ) -> ScenarioModel {
        Self::with_ir(
            platform,
            attacker,
            attack,
            scheme,
            model_for(platform, attacker, scheme),
        )
    }

    /// Builds the cell model over an explicit Policy IR — the derivation
    /// scenarios seed `ir.caps` with anomalous capabilities, and the
    /// flow closure decides here which attacker primitives they unlock.
    /// Every query is adjudicated here, against `ir` and the cell's
    /// [`KernelGate`].
    pub fn with_ir(
        platform: Platform,
        attacker: AttackerModel,
        attack: AttackId,
        scheme: UidScheme,
        ir: PolicyModel,
    ) -> ScenarioModel {
        let (masq, derived) = seeded_caps(&ir);
        let adj = Adjudication::new(&ir, &KernelGate::for_cell(platform, attacker, scheme));
        ScenarioModel {
            platform,
            attacker,
            attack,
            scheme,
            bounds: McBounds::default(),
            ir,
            adj,
            masq,
            derived,
            churn: false,
        }
    }

    /// Adds the capability-churn primitives to the attacker's menu: the
    /// checker then interleaves revoke/regrant against the control loop
    /// and searches for a stale delivery ([`flags::CAP_RACE`]) — the
    /// exhaustive-interleaving cross-validation of the dynamic race
    /// detector.
    pub fn with_churn(mut self) -> ScenarioModel {
        self.churn = true;
        self
    }

    /// The Policy IR this cell is adjudicated against.
    pub fn ir(&self) -> &PolicyModel {
        &self.ir
    }

    /// The per-cell adjudication table the transitions read.
    pub fn adjudication(&self) -> &Adjudication {
        &self.adj
    }

    /// The IR role name bound to `p`.
    pub fn name(&self, p: Proc) -> &str {
        role(&self.ir.roles, p)
    }

    /// Applies a dual verdict on the transition performing the
    /// operation: returns the kernel's verdict, and a disagreement
    /// raises `GATE_MISMATCH`.
    fn judged(st: &mut McState, v: Verdict) -> bool {
        if v.mismatch {
            st.flags |= flags::GATE_MISMATCH;
        }
        v.kernel
    }

    /// Dual-adjudicated send: Policy IR vs kernel artifact.
    fn send(&self, st: &mut McState, sender: Proc, receiver: Proc, mtype: u32) -> bool {
        Self::judged(st, self.adj.send(sender, receiver, mtype))
    }

    /// Dual-adjudicated device access.
    fn device(&self, st: &mut McState, subject: Proc, dev: DeviceId, write: bool) -> bool {
        Self::judged(st, self.adj.device(subject, dev, write))
    }

    fn apply_step(&self, t: &mut McState, p: Proc) {
        t.moved |= p.bit();
        match p {
            Proc::Sensor => {
                // Read the plant, report to the controller. The sensor is
                // in the controller's authenticated set, so an admitted
                // reading always enters the mailbox slot.
                if self.device(t, Proc::Sensor, DeviceId::TEMP_SENSOR, false)
                    && self.send(t, Proc::Sensor, Proc::Ctrl, MT_SENSOR_READING)
                    // The admission-time recheck: a revoked send right
                    // denies *new* messages. Anything already sitting in
                    // the slot is past the check — that window is the
                    // race the churn cells search for.
                    && t.cap_ok
                {
                    t.reading = Some((t.temp_hot, ReadingOrigin::Sensor));
                }
            }
            Proc::Ctrl => {
                // Drain the mailbox: the reading slot holds only messages
                // that pass authentication (enforced at insertion), so
                // consumption is unconditional belief update.
                if let Some((hot, origin)) = t.reading.take() {
                    // A sensor message admitted before a revoke but
                    // consumed after it: the kernel honored a delivery
                    // current policy no longer authorizes.
                    if origin == ReadingOrigin::Sensor && !t.cap_ok {
                        t.flags |= flags::CAP_RACE;
                    }
                    t.believes_hot = hot;
                }
                if let Some(msg) = t.web_msg.take() {
                    match msg {
                        WebMsg::Junk => {} // malformed; discarded
                        WebMsg::TamperSetpoint => {
                            // Range validation holds on every platform.
                            if self.adj.app_accepts(Proc::Ctrl, MT_SETPOINT, false) {
                                t.diverged = true;
                            }
                        }
                        WebMsg::ReplaySetpoint => {
                            if self.adj.app_accepts(Proc::Ctrl, MT_SETPOINT, true) {
                                t.diverged = true;
                            }
                        }
                    }
                }
                // Re-assert actuation levels every round.
                let want = t.believes_hot;
                if self.send(t, Proc::Ctrl, Proc::Heater, MT_FAN_CMD) {
                    t.fan_cmd = Some(want);
                }
                if self.send(t, Proc::Ctrl, Proc::Alarm, MT_ALARM_CMD) {
                    t.alarm_cmd = Some(want);
                }
            }
            Proc::Heater => {
                if let Some(on) = t.fan_cmd.take() {
                    if self.device(t, Proc::Heater, DeviceId::FAN, true) {
                        t.fan_dev = on;
                    }
                }
            }
            Proc::Alarm => {
                if let Some(on) = t.alarm_cmd.take() {
                    if self.device(t, Proc::Alarm, DeviceId::ALARM, true) {
                        t.alarm_dev = on;
                    }
                }
            }
            Proc::Web => unreachable!("the web position acts via Attack"),
        }
    }

    fn apply_attack(&self, t: &mut McState, op: AttackOp) {
        t.moved |= Proc::Web.bit();
        t.budget = t.budget.saturating_sub(1);
        let adj = &self.adj;
        match op {
            AttackOp::InjectReading => {
                if adj.mech_delivers(Proc::Ctrl, MT_SENSOR_READING, true) {
                    t.flags |= flags::DELIVERED;
                }
                // A forged reading enters the mailbox slot only where the
                // controller cannot authenticate it away — a rejected
                // message is answered in-band and cannot mask real
                // traffic; an accepted one races the sensor's.
                if self.send(t, Proc::Web, Proc::Ctrl, MT_SENSOR_READING)
                    && adj.app_accepts(Proc::Ctrl, MT_SENSOR_READING, true)
                {
                    t.reading = Some((false, ReadingOrigin::Web));
                }
            }
            AttackOp::ForgeFanOff => {
                if adj.mech_delivers(Proc::Heater, MT_FAN_CMD, true) {
                    t.flags |= flags::DELIVERED;
                }
                if self.send(t, Proc::Web, Proc::Heater, MT_FAN_CMD) {
                    t.fan_cmd = Some(false);
                }
            }
            AttackOp::ForgeAlarmOff => {
                if adj.mech_delivers(Proc::Alarm, MT_ALARM_CMD, true) {
                    t.flags |= flags::DELIVERED;
                }
                if self.send(t, Proc::Web, Proc::Alarm, MT_ALARM_CMD) {
                    t.alarm_cmd = Some(false);
                }
            }
            AttackOp::Kill(victim) => {
                if Self::judged(t, adj.kill(victim)) {
                    t.alive &= !victim.bit();
                    t.flags |= flags::DELIVERED;
                }
            }
            AttackOp::Fork => {
                let kernel_ok = Self::judged(t, adj.fork());
                let quota = adj.fork_quota();
                if kernel_ok && quota != Some(0) {
                    if quota.is_some_and(|q| u64::from(t.forks) >= q) {
                        // The process manager's quota denies the child.
                    } else {
                        t.forks = (t.forks + 1).min(self.bounds.fork_cap);
                        t.flags |= flags::DELIVERED;
                        if quota.is_some_and(|q| u64::from(t.forks) > q) {
                            t.flags |= flags::QUOTA_BREACH;
                        }
                    }
                }
            }
            AttackOp::Probe => {
                // Handle enumeration is a static property of the handle
                // space; no kernel gate is consulted per probe.
                if adj.probe_reaches() {
                    t.flags |= flags::DELIVERED;
                }
            }
            AttackOp::Flood => {
                if adj.mech_delivers(Proc::Ctrl, MT_SETPOINT, false) {
                    t.flags |= flags::DELIVERED;
                }
                if self.send(t, Proc::Web, Proc::Ctrl, MT_SETPOINT) {
                    t.web_msg = Some(WebMsg::Junk);
                }
            }
            AttackOp::Tamper => {
                // Delivery credit follows the IR's channel and the
                // application's acceptance, not the kernel's admission.
                let accepted = adj.send(Proc::Web, Proc::Ctrl, MT_SETPOINT).ir()
                    && adj.app_accepts(Proc::Ctrl, MT_SETPOINT, false);
                if accepted {
                    t.flags |= flags::DELIVERED;
                }
                if self.send(t, Proc::Web, Proc::Ctrl, MT_SETPOINT) {
                    t.web_msg = Some(WebMsg::TamperSetpoint);
                }
            }
            AttackOp::Replay => {
                let accepted = adj.send(Proc::Web, Proc::Ctrl, MT_SETPOINT).ir()
                    && adj.app_accepts(Proc::Ctrl, MT_SETPOINT, true);
                if accepted {
                    t.flags |= flags::DELIVERED;
                }
                if self.send(t, Proc::Web, Proc::Ctrl, MT_SETPOINT) {
                    t.web_msg = Some(WebMsg::ReplaySetpoint);
                }
            }
            AttackOp::DevForceFan => {
                if self.device(t, Proc::Web, DeviceId::FAN, true) {
                    t.fan_dev = false;
                    t.flags |= flags::DELIVERED | flags::UNAUTH_DEV_WRITE;
                }
            }
            AttackOp::DevForceAlarm => {
                if self.device(t, Proc::Web, DeviceId::ALARM, true) {
                    t.alarm_dev = false;
                    t.flags |= flags::DELIVERED | flags::UNAUTH_DEV_WRITE;
                }
            }
            AttackOp::Masquerade => {
                // A kernel honoring the asserted handle type acts on the
                // confused object; one re-validating at translation
                // rejects the invocation outright (no flags at all).
                if let Some(cap) = self.masq.filter(|c| c.exploitable) {
                    t.flags |= flags::DELIVERED | flags::MASQUERADE;
                    self.apply_cap_effect(t, cap.effect);
                }
            }
            AttackOp::UseDerived => {
                // The slot reads usable to the kernel by construction —
                // that is exactly the derivation breach.
                if let Some(cap) = self.derived {
                    t.flags |= flags::DELIVERED | flags::DERIVATION_BREACH;
                    self.apply_cap_effect(t, cap.effect);
                }
            }
            // Churn is administrative policy motion, not a delivery
            // mechanism: neither op sets DELIVERED. The violation, if
            // any, is raised where the controller consumes a stale
            // message.
            AttackOp::Revoke => t.cap_ok = false,
            AttackOp::Regrant => t.cap_ok = true,
        }
    }

    fn apply_cap_effect(&self, t: &mut McState, effect: CapEffect) {
        match effect {
            CapEffect::ForceFan => t.fan_dev = false,
            CapEffect::ForceAlarm => t.alarm_dev = false,
            CapEffect::Corrupt => t.diverged = true,
        }
    }
}

/// Scans the IR's derivation graph for anomalous capabilities in the
/// attacker's (web) possession: the lowest-id masquerading handle and
/// the lowest-id derivation-breach cap whose slot still reads usable.
/// Cleanly lowered graphs yield neither, so the 54-cell matrix is
/// unaffected.
fn seeded_caps(ir: &PolicyModel) -> (Option<SeededCap>, Option<SeededCap>) {
    if ir.caps.is_empty() {
        return (None, None);
    }
    let cl = flow::closure(&ir.caps);
    let effect_of = |id: CapId| match &ir.caps.node(id).object {
        ObjectId::Device(d) if *d == DeviceId::FAN => CapEffect::ForceFan,
        ObjectId::Device(d) if *d == DeviceId::ALARM => CapEffect::ForceAlarm,
        _ => CapEffect::Corrupt,
    };
    let held_usable = |id: &CapId| -> bool {
        ir.caps.node(*id).holder == ir.roles.web && ir.caps.stored_usable(*id)
    };
    let masq = cl
        .masquerade_caps()
        .into_iter()
        .find(held_usable)
        .map(|id| SeededCap {
            // Unguessable handles are re-validated at translation; raw
            // enumerable handles are honored as asserted.
            exploitable: !ir.traits.unguessable_handles,
            effect: effect_of(id),
        });
    let derived = cl
        .breach_caps()
        .into_iter()
        .find(held_usable)
        .map(|id| SeededCap {
            // A slot the kernel's own bookkeeping says is usable.
            exploitable: true,
            effect: effect_of(id),
        });
    (masq, derived)
}

// ---------------------------------------------------------------------
// Footprints for the independence relation.
// ---------------------------------------------------------------------

mod field {
    pub const TEMP: u32 = 1 << 0;
    pub const READING: u32 = 1 << 1;
    pub const WEB_MSG: u32 = 1 << 2;
    pub const FAN_CMD: u32 = 1 << 3;
    pub const ALARM_CMD: u32 = 1 << 4;
    pub const FAN_DEV: u32 = 1 << 5;
    pub const ALARM_DEV: u32 = 1 << 6;
    pub const BELIEF: u32 = 1 << 7;
    pub const DIVERGED: u32 = 1 << 8;
    pub const FORKS: u32 = 1 << 9;
    pub const BUDGET: u32 = 1 << 10;
    pub const ROUND: u32 = 1 << 11;
    pub const COUNTER: u32 = 1 << 12;
    pub const CAP_OK: u32 = 1 << 13;
    /// Per-process liveness bits, `ALIVE << index`.
    pub const ALIVE: u32 = 1 << 16;
    /// Per-process moved bits, `MOVED << index`.
    pub const MOVED: u32 = 1 << 24;
}

fn alive(p: Proc) -> u32 {
    field::ALIVE << p.index()
}

fn moved(p: Proc) -> u32 {
    field::MOVED << p.index()
}

const MOVED_ALL: u32 = field::MOVED * 0b1_1111;
const ALIVE_ALL: u32 = field::ALIVE * 0b1111;

/// `(reads, writes)` over the field bitmask, *including* enabledness
/// reads. The monotone `flags` ORs are deliberately excluded: OR-writes
/// commute and nothing reads the flags during exploration; actions that
/// set flags are caught by visibility instead.
fn footprint(action: &McAction) -> (u32, u32) {
    match action {
        McAction::Step(p) => {
            let base_r = alive(*p) | moved(*p) | field::ROUND;
            match p {
                Proc::Sensor => (
                    base_r | field::TEMP | field::CAP_OK,
                    field::READING | moved(*p),
                ),
                Proc::Ctrl => (
                    base_r | field::READING | field::WEB_MSG | field::BELIEF | field::CAP_OK,
                    field::READING
                        | field::WEB_MSG
                        | field::BELIEF
                        | field::DIVERGED
                        | field::FAN_CMD
                        | field::ALARM_CMD
                        | moved(*p),
                ),
                Proc::Heater => (
                    base_r | field::FAN_CMD,
                    field::FAN_CMD | field::FAN_DEV | moved(*p),
                ),
                Proc::Alarm => (
                    base_r | field::ALARM_CMD,
                    field::ALARM_CMD | field::ALARM_DEV | moved(*p),
                ),
                Proc::Web => (base_r, moved(*p)),
            }
        }
        McAction::Attack(op) => {
            let r = moved(Proc::Web) | field::BUDGET | field::ROUND;
            let w = moved(Proc::Web) | field::BUDGET;
            let extra = match op {
                AttackOp::InjectReading => field::READING,
                AttackOp::ForgeFanOff => field::FAN_CMD,
                AttackOp::ForgeAlarmOff => field::ALARM_CMD,
                AttackOp::Kill(v) => alive(*v),
                AttackOp::Fork => field::FORKS,
                AttackOp::Probe => 0,
                AttackOp::Flood | AttackOp::Tamper | AttackOp::Replay => field::WEB_MSG,
                AttackOp::DevForceFan => field::FAN_DEV,
                AttackOp::DevForceAlarm => field::ALARM_DEV,
                // Seeded-cap invocations may touch either device register
                // or corrupt controller state; over-approximate.
                AttackOp::Masquerade | AttackOp::UseDerived => {
                    field::FAN_DEV | field::ALARM_DEV | field::DIVERGED
                }
                AttackOp::Revoke | AttackOp::Regrant => field::CAP_OK,
            };
            (r | extra, w | extra)
        }
        McAction::EnvTick => (
            MOVED_ALL | ALIVE_ALL | field::ROUND | field::TEMP | field::ALARM_DEV | field::COUNTER,
            MOVED_ALL | field::ROUND | field::TEMP | field::COUNTER,
        ),
    }
}

impl StepSemantics for ScenarioModel {
    type State = McState;
    type Action = McAction;

    fn initial_state(&self) -> McState {
        McState::initial(self.bounds.attacker_budget)
    }

    fn enabled_actions(&self, s: &McState) -> Vec<McAction> {
        let mut acts = Vec::new();
        if s.round >= self.bounds.max_rounds {
            return acts; // bounded horizon reached
        }
        for p in Proc::CRITICAL {
            if s.is_alive(p) && !s.has_moved(p) {
                acts.push(McAction::Step(p));
            }
        }
        if !s.has_moved(Proc::Web) && s.budget > 0 {
            for &op in self.attack.program().ops {
                let available = match op {
                    AttackOp::Kill(v) => s.is_alive(v),
                    AttackOp::Fork => s.forks < self.bounds.fork_cap,
                    _ => true,
                };
                if available {
                    acts.push(McAction::Attack(op));
                }
            }
            // Seeded anomalous capabilities extend the attacker's menu
            // regardless of the background attack.
            if self.masq.is_some() {
                acts.push(McAction::Attack(AttackOp::Masquerade));
            }
            if self.derived.is_some() {
                acts.push(McAction::Attack(AttackOp::UseDerived));
            }
            // Churn ops flip a single bit, so only the state-changing
            // direction is ever offered.
            if self.churn {
                acts.push(McAction::Attack(if s.cap_ok {
                    AttackOp::Revoke
                } else {
                    AttackOp::Regrant
                }));
            }
        }
        // The attacker does not gate the round: the tick competing with
        // the pending attack actions is the "attacker sits out" branch.
        if s.round_complete() {
            acts.push(McAction::EnvTick);
        }
        acts
    }

    fn apply(&self, s: &McState, a: &McAction) -> McState {
        let mut t = s.clone();
        match a {
            McAction::Step(p) => self.apply_step(&mut t, *p),
            McAction::Attack(op) => self.apply_attack(&mut t, *op),
            McAction::EnvTick => {
                t.moved = 0;
                t.round += 1;
                if t.round == self.bounds.burst_round {
                    t.temp_hot = true; // burst beyond the fan's authority
                }
                if t.temp_hot && !t.alarm_dev {
                    t.hot_unalarmed = t.hot_unalarmed.saturating_add(1);
                } else {
                    t.hot_unalarmed = 0;
                }
            }
        }
        t
    }

    fn is_visible(&self, s: &McState, a: &McAction) -> bool {
        match a {
            // Ticks advance the bounded-response counter; attacker
            // actions set verdict flags — both property-relevant.
            McAction::EnvTick | McAction::Attack(_) => true,
            McAction::Step(_) => {
                let t = self.apply(s, a);
                t.flags != s.flags || t.alive != s.alive || t.diverged != s.diverged
            }
        }
    }

    fn independent(&self, a: &McAction, b: &McAction) -> bool {
        let (ra, wa) = footprint(a);
        let (rb, wb) = footprint(b);
        wa & (rb | wb) == 0 && wb & (ra | wa) == 0
    }

    fn owner(&self, a: &McAction) -> usize {
        match a {
            McAction::Step(p) => p.index(),
            McAction::Attack(_) => Proc::Web.index(),
            McAction::EnvTick => 5,
        }
    }

    /// The injective packing: deduplication is exact.
    fn fingerprint(&self, s: &McState) -> u64 {
        s.pack()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_core::semantics::replay_trace;

    fn model(platform: Platform, attack: AttackId) -> ScenarioModel {
        ScenarioModel::new(
            platform,
            AttackerModel::ArbitraryCode,
            attack,
            UidScheme::SharedAccount,
        )
    }

    /// One full healthy round in schedule order, then the tick.
    fn healthy_round(m: &ScenarioModel, s: &McState) -> McState {
        let mut cur = s.clone();
        for p in Proc::CRITICAL {
            cur = m.apply(&cur, &McAction::Step(p));
        }
        assert!(cur.round_complete());
        m.apply(&cur, &McAction::EnvTick)
    }

    #[test]
    fn healthy_rounds_raise_the_alarm_and_stay_clean() {
        let m = model(Platform::Minix, AttackId::SetpointTamper);
        let mut s = m.initial_state();
        for _ in 0..m.bounds.max_rounds {
            s = healthy_round(&m, &s);
        }
        assert!(s.temp_hot, "the burst fired");
        assert!(s.alarm_dev, "alarm asserted once the burst propagated");
        assert!(s.fan_dev);
        assert_eq!(s.flags, 0, "no flags on the healthy schedule");
        assert!(u32::from(s.hot_unalarmed) <= u32::from(m.bounds.response_bound));
    }

    #[test]
    fn minix_acm_stops_injected_readings() {
        let m = model(Platform::Minix, AttackId::SpoofSensorData);
        let s = m.initial_state();
        let t = m.apply(&s, &McAction::Attack(AttackOp::InjectReading));
        assert_eq!(t.reading, None, "kernel denies the send");
        assert_eq!(t.flags, 0, "no delivery, no mismatch");
    }

    #[test]
    fn linux_shared_account_admits_injected_readings() {
        let m = model(Platform::Linux, AttackId::SpoofSensorData);
        let s = m.initial_state();
        let t = m.apply(&s, &McAction::Attack(AttackOp::InjectReading));
        assert_eq!(t.reading, Some((false, ReadingOrigin::Web)));
        assert_eq!(t.flags, flags::DELIVERED);
    }

    #[test]
    fn sel4_kernel_admits_but_server_rejects_injected_readings() {
        let m = model(Platform::Sel4, AttackId::SpoofSensorData);
        let s = m.initial_state();
        let t = m.apply(&s, &McAction::Attack(AttackOp::InjectReading));
        assert_eq!(t.reading, None, "badge authentication rejects in-band");
        assert_eq!(t.flags, 0, "RPC mechanism verdict is the reply");
    }

    #[test]
    fn replayed_setpoint_diverges_on_every_platform() {
        for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
            let m = model(platform, AttackId::ReplaySetpoint);
            let s = m.initial_state();
            let t = m.apply(&s, &McAction::Attack(AttackOp::Replay));
            assert_eq!(t.flags, flags::DELIVERED, "{platform:?}");
            let u = m.apply(&t, &McAction::Step(Proc::Ctrl));
            assert!(u.diverged, "{platform:?}: controller accepts the replay");
        }
    }

    #[test]
    fn tampered_setpoint_is_rejected_everywhere() {
        for platform in [Platform::Linux, Platform::Minix, Platform::Sel4] {
            let m = model(platform, AttackId::SetpointTamper);
            let s = m.initial_state();
            let t = m.apply(&s, &McAction::Attack(AttackOp::Tamper));
            assert_eq!(t.flags, 0, "{platform:?}: no delivery credit");
            let u = m.apply(&t, &McAction::Step(Proc::Ctrl));
            assert!(!u.diverged, "{platform:?}: range validation holds");
        }
    }

    #[test]
    fn drivers_commute_with_each_other_but_not_with_the_controller() {
        let m = model(Platform::Minix, AttackId::SetpointTamper);
        let heater = McAction::Step(Proc::Heater);
        let alarm = McAction::Step(Proc::Alarm);
        let ctrl = McAction::Step(Proc::Ctrl);
        assert!(m.independent(&heater, &alarm));
        assert!(!m.independent(&heater, &ctrl), "ctrl writes fan_cmd");
        assert!(!m.independent(&alarm, &McAction::Attack(AttackOp::ForgeAlarmOff)));
        assert!(m.independent(&heater, &McAction::Attack(AttackOp::Replay)));
        assert!(!m.independent(&ctrl, &McAction::EnvTick));
    }

    #[test]
    fn enabled_actions_follow_the_round_barrier() {
        let m = model(Platform::Minix, AttackId::KillCritical);
        let s = m.initial_state();
        let acts = m.enabled_actions(&s);
        assert!(acts.contains(&McAction::Step(Proc::Sensor)));
        assert!(acts.contains(&McAction::Attack(AttackOp::Kill(Proc::Ctrl))));
        assert!(!acts.contains(&McAction::EnvTick), "round incomplete");
        let trace: Vec<McAction> = Proc::CRITICAL.iter().map(|p| McAction::Step(*p)).collect();
        let states = replay_trace(&m, &trace).expect("schedule order is feasible");
        let last = states.last().expect("replay yields at least one state");
        assert!(m.enabled_actions(last).contains(&McAction::EnvTick));
    }
}
