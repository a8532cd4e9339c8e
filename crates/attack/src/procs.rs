//! Attacker process implementations, one per platform.
//!
//! Each attacker is a resumable state machine that (1) sleeps until the
//! attack start time (the system runs benignly during warmup), (2)
//! performs reconnaissance (name-service lookups on MINIX, pid lookups on
//! Linux; on seL4 the CapDL layout is assumed known, per the paper), (3)
//! runs a one-time setup sequence, then (4) repeats its loop body until
//! the loop budget is exhausted, recording classified kernel replies into
//! a shared [`EvidenceLog`]. Steps (3) and (4) are one platform-neutral
//! [`ScriptRunner`]; each attacker keeps only its reconnaissance and the
//! hook that classifies its kernel's replies.

use bas_sim::process::{Action, Process};
use bas_sim::time::SimDuration;

use crate::evidence::{classify_linux, classify_minix, classify_sel4, Class, EvidenceLog};

/// One attack step: a syscall plus whether its reply counts as evidence
/// (pacing sleeps don't).
#[derive(Debug, Clone)]
pub struct AttackStep<S> {
    /// The syscall to issue.
    pub syscall: S,
    /// Whether the reply is evidence.
    pub counted: bool,
}

impl<S> AttackStep<S> {
    /// A counted step.
    pub fn counted(syscall: S) -> Self {
        AttackStep {
            syscall,
            counted: true,
        }
    }

    /// An uncounted (pacing/bookkeeping) step.
    pub fn pacing(syscall: S) -> Self {
        AttackStep {
            syscall,
            counted: false,
        }
    }
}

/// The common schedule of an attack.
pub struct AttackScript<S> {
    /// Idle time before the attack starts (warmup).
    pub delay: SimDuration,
    /// One-time setup steps (queue opens, probes).
    pub setup: Vec<AttackStep<S>>,
    /// Steps repeated until the budget runs out.
    pub loop_body: Vec<AttackStep<S>>,
    /// Number of loop iterations (`None` = forever).
    pub max_loops: Option<u64>,
}

/// How long an attacker sleeps per wake once its script is exhausted.
const IDLE: SimDuration = SimDuration::from_secs(3_600);

/// Steps through an [`AttackScript`]: the setup once, then the loop body
/// until the loop budget runs out, then an idle syscall forever.
pub struct ScriptRunner<S> {
    script: AttackScript<S>,
    idle: S,
    in_setup: bool,
    idx: usize,
    loops_done: u64,
    last_counted: bool,
    done: bool,
}

impl<S: Clone> ScriptRunner<S> {
    /// A runner at the start of `script`'s setup; `idle` is issued on
    /// every wake once the script is exhausted.
    pub fn new(script: AttackScript<S>, idle: S) -> Self {
        ScriptRunner {
            script,
            idle,
            in_setup: true,
            idx: 0,
            loops_done: 0,
            last_counted: false,
            done: false,
        }
    }

    /// The script's warmup delay.
    pub fn delay(&self) -> SimDuration {
        self.script.delay
    }

    /// Hands `reply` to `record` when it answers a counted step, then
    /// issues the next step.
    pub fn resume<R>(&mut self, reply: Option<R>, record: impl FnOnce(&R)) -> Action<S> {
        if let (true, Some(r)) = (self.last_counted, &reply) {
            record(r);
        }
        self.step()
    }

    /// Issues the next step, or the idle syscall once the budget is spent.
    pub fn step(&mut self) -> Action<S> {
        while !self.done {
            let steps = if self.in_setup {
                &self.script.setup
            } else {
                &self.script.loop_body
            };
            if let Some(step) = steps.get(self.idx) {
                self.idx += 1;
                self.last_counted = step.counted;
                return Action::Syscall(step.syscall.clone());
            }
            if self.in_setup {
                self.in_setup = false;
                self.idx = 0;
                self.done = self.script.loop_body.is_empty();
                continue;
            }
            self.loops_done += 1;
            self.done = self.script.max_loops.is_some_and(|m| self.loops_done >= m);
            self.idx = 0;
        }
        self.last_counted = false;
        Action::Syscall(self.idle.clone())
    }
}

// ---------------------------------------------------------------------------
// MINIX attacker
// ---------------------------------------------------------------------------

pub use minix_attacker::{MinixAttacker, MinixScriptBuilder};

/// MINIX attacker implementation.
pub mod minix_attacker {
    use super::*;
    use bas_minix::endpoint::Endpoint;
    use bas_minix::syscall::{Reply, Syscall};

    /// Builds the script once reconnaissance has resolved the requested
    /// process names (a `None` entry means the name was not found).
    pub type MinixScriptBuilder = Box<dyn FnOnce(&[Option<Endpoint>]) -> AttackScript<Syscall>>;

    /// The compromised web-interface process on MINIX.
    pub struct MinixAttacker {
        lookups: Vec<String>,
        resolved: Vec<Option<Endpoint>>,
        builder: Option<MinixScriptBuilder>,
        evidence: EvidenceLog,
        phase: Phase,
    }

    enum Phase {
        Start,
        AwaitLookup(usize),
        Body(ScriptRunner<Syscall>),
    }

    impl MinixAttacker {
        /// Creates the attacker. `lookups` are resolved before the script
        /// builder runs.
        pub fn new(
            lookups: Vec<String>,
            builder: MinixScriptBuilder,
            evidence: EvidenceLog,
        ) -> Self {
            MinixAttacker {
                lookups,
                resolved: Vec::new(),
                builder: Some(builder),
                evidence,
                phase: Phase::Start,
            }
        }

        /// Builds the script from the reconnaissance results and sleeps
        /// out its delay before acting.
        fn build(&mut self) -> Action<Syscall> {
            let builder = self.builder.take().expect("builder present");
            let runner =
                ScriptRunner::new(builder(&self.resolved), Syscall::Sleep { duration: IDLE });
            let duration = runner.delay();
            self.phase = Phase::Body(runner);
            Action::Syscall(Syscall::Sleep { duration })
        }
    }

    impl Process for MinixAttacker {
        type Syscall = Syscall;
        type Reply = Reply;

        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match &mut self.phase {
                // Reconnaissance first (lookups are cheap and silent),
                // then sleep out the script's delay before acting.
                Phase::Start if self.lookups.is_empty() => self.build(),
                Phase::Start => {
                    self.phase = Phase::AwaitLookup(0);
                    Action::Syscall(Syscall::Lookup {
                        name: self.lookups[0].clone().into(),
                    })
                }
                &mut Phase::AwaitLookup(i) => {
                    self.resolved.push(match reply {
                        Some(Reply::Resolved(ep)) => Some(ep),
                        _ => None,
                    });
                    if i + 1 < self.lookups.len() {
                        self.phase = Phase::AwaitLookup(i + 1);
                        return Action::Syscall(Syscall::Lookup {
                            name: self.lookups[i + 1].clone().into(),
                        });
                    }
                    self.build()
                }
                Phase::Body(runner) => runner.resume(reply, |r| {
                    self.evidence.borrow_mut().record(classify_minix(r));
                }),
            }
        }

        fn name(&self) -> &str {
            bas_core::proto::names::WEB
        }
    }
}

// ---------------------------------------------------------------------------
// seL4 attacker
// ---------------------------------------------------------------------------

pub use sel4_attacker::Sel4Attacker;

/// seL4 attacker implementation.
pub mod sel4_attacker {
    use super::*;
    use bas_sel4::objects::ObjKind;
    use bas_sel4::syscall::{Reply, Syscall};

    /// The compromised web-interface thread on seL4. The script is built
    /// at construction time from the glue map (the attacker is assumed to
    /// know the CapDL file, as in §IV-D.3).
    pub struct Sel4Attacker {
        runner: ScriptRunner<Syscall>,
        evidence: EvidenceLog,
        started: bool,
    }

    impl Sel4Attacker {
        /// Creates the attacker from its script.
        pub fn new(script: AttackScript<Syscall>, evidence: EvidenceLog) -> Self {
            Sel4Attacker {
                runner: ScriptRunner::new(script, Syscall::Sleep { duration: IDLE }),
                evidence,
                started: false,
            }
        }
    }

    impl Process for Sel4Attacker {
        type Syscall = Syscall;
        type Reply = Reply;

        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            if !std::mem::replace(&mut self.started, true) {
                return Action::Syscall(Syscall::Sleep {
                    duration: self.runner.delay(),
                });
            }
            self.runner.resume(reply, |r| {
                let mut ev = self.evidence.borrow_mut();
                ev.record(classify_sel4(r));
                // Enumeration bookkeeping: a probe that found a capability.
                if let Reply::Identified(kind) = r {
                    ev.handles_found += 1;
                    ev.notes.push(format!(
                        "found capability: {}",
                        kind.map_or("reply-cap".to_string(), |k: ObjKind| k.to_string())
                    ));
                }
            })
        }

        fn name(&self) -> &str {
            bas_core::proto::names::WEB
        }
    }
}

// ---------------------------------------------------------------------------
// Linux attacker
// ---------------------------------------------------------------------------

pub use linux_attacker::{LinuxAttacker, LinuxScriptBuilder};

/// Linux attacker implementation.
pub mod linux_attacker {
    use super::*;
    use bas_linux::syscall::{Reply, Syscall};
    use bas_sim::process::Pid;

    /// Builds the script once reconnaissance has resolved the requested
    /// process names to pids (`None` = not found).
    pub type LinuxScriptBuilder = Box<dyn FnOnce(&[Option<Pid>]) -> AttackScript<Syscall>>;

    /// The compromised web-interface process on Linux.
    ///
    /// The delay is applied *before* pid reconnaissance (so targets are
    /// looked up post-warmup); it therefore lives on the attacker and the
    /// script's own `delay` field is unused on this platform.
    pub struct LinuxAttacker {
        pid_lookups: Vec<String>,
        resolved: Vec<Option<Pid>>,
        builder: Option<LinuxScriptBuilder>,
        evidence: EvidenceLog,
        delay: SimDuration,
        phase: Phase,
    }

    enum Phase {
        Start,
        AwaitDelay,
        AwaitPidOf(usize),
        Body(ScriptRunner<Syscall>),
    }

    impl LinuxAttacker {
        /// Creates the attacker; `pid_lookups` resolve before the script
        /// builder runs (after the delay, so targets are post-warmup).
        pub fn new(
            pid_lookups: Vec<String>,
            builder: LinuxScriptBuilder,
            evidence: EvidenceLog,
            delay: SimDuration,
        ) -> Self {
            LinuxAttacker {
                pid_lookups,
                resolved: Vec::new(),
                builder: Some(builder),
                evidence,
                delay,
                phase: Phase::Start,
            }
        }

        /// Builds the script from the reconnaissance results and issues
        /// its first step at once.
        fn build(&mut self) -> Action<Syscall> {
            let builder = self.builder.take().expect("builder present");
            let mut runner =
                ScriptRunner::new(builder(&self.resolved), Syscall::Sleep { duration: IDLE });
            let first = runner.step();
            self.phase = Phase::Body(runner);
            first
        }
    }

    impl Process for LinuxAttacker {
        type Syscall = Syscall;
        type Reply = Reply;

        fn resume(&mut self, reply: Option<Reply>) -> Action<Syscall> {
            match &mut self.phase {
                Phase::Start => {
                    self.phase = Phase::AwaitDelay;
                    Action::Syscall(Syscall::Sleep {
                        duration: self.delay,
                    })
                }
                Phase::AwaitDelay if self.pid_lookups.is_empty() => self.build(),
                Phase::AwaitDelay => {
                    self.phase = Phase::AwaitPidOf(0);
                    Action::Syscall(Syscall::PidOf {
                        name: self.pid_lookups[0].clone(),
                    })
                }
                &mut Phase::AwaitPidOf(i) => {
                    self.resolved.push(match reply {
                        Some(Reply::Pid(p)) => Some(p),
                        _ => None,
                    });
                    if i + 1 < self.pid_lookups.len() {
                        self.phase = Phase::AwaitPidOf(i + 1);
                        return Action::Syscall(Syscall::PidOf {
                            name: self.pid_lookups[i + 1].clone(),
                        });
                    }
                    self.build()
                }
                Phase::Body(runner) => runner.resume(reply, |r| {
                    let mut ev = self.evidence.borrow_mut();
                    let class = classify_linux(r);
                    ev.record(class);
                    if matches!(r, Reply::Qd(_)) && class == Class::Success {
                        ev.handles_found += 1;
                    }
                }),
            }
        }

        fn name(&self) -> &str {
            bas_core::proto::names::WEB
        }
    }
}
