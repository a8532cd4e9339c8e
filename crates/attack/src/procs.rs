//! The attacker process: one state machine for every platform.
//!
//! [`Attacker`] takes the web interface's place. It resolves the processes
//! its program aims at and sleeps out the warmup, in the order its
//! platform's [`Binding`] asks for; lowers the program through the
//! binding ([`lower`]); and runs the result with the platform-neutral
//! [`ScriptRunner`], recording the kernel's reply to every counted step
//! into a shared [`EvidenceLog`] through the binding's `classify_*` hook.
//! [`web_factory`] is the one entry that mounts an attack on a platform's
//! web-interface slot.

use bas_sim::process::{Action, Process};
use bas_sim::time::SimDuration;

use crate::evidence::{AttackEvidence, EvidenceLog};
use crate::model::AttackId;
use crate::program::{AttackOp, AttackProgram, Proc};

/// One attack step: a syscall plus whether its reply counts as evidence
/// (pacing sleeps don't).
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The common schedule of an attack, after the warmup; also what one op
/// lowers to on one platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackScript<S> {
    /// One-time setup steps: acquisitions (queue opens) and one-shot
    /// sweeps and probes.
    pub setup: Vec<AttackStep<S>>,
    /// Steps repeated until the budget runs out.
    pub loop_body: Vec<AttackStep<S>>,
    /// Number of loop iterations (`None` = forever); for one op, the most
    /// it is worth (a blind sweep gives up).
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

/// One platform's binding of the attacker alphabet to its syscalls.
pub trait Binding: Sized + 'static {
    /// The platform's syscall.
    type Syscall: Clone + PartialEq + 'static;
    /// The platform's syscall reply.
    type Reply: 'static;
    /// A resolved process (a MINIX endpoint, a Linux pid).
    type Handle: Copy + 'static;
    /// The platform's web-interface factory (its overrides' field).
    type Factory;

    /// Whether reconnaissance runs before the warmup sleep (MINIX) or
    /// after it (Linux).
    const RESOLVE_FIRST: bool = false;

    /// The lookup that resolves the process `op` is aimed at, when this
    /// platform's lowering of `op` needs its handle.
    fn lookup(_op: AttackOp) -> Option<Self::Syscall> {
        None
    }

    /// The handle a lookup's reply carries (`None` = not found).
    fn handle(_reply: Option<Self::Reply>) -> Option<Self::Handle> {
        None
    }

    /// Lowers `op`, given its resolved target; `None` when this platform
    /// does not bind `op` at all.
    fn lower(
        &mut self,
        op: AttackOp,
        target: Option<Self::Handle>,
    ) -> Option<AttackScript<Self::Syscall>>;

    /// A sleep for `duration`.
    fn sleep(duration: SimDuration) -> Self::Syscall;

    /// The syscall the attacker makes for the script step `step`; by
    /// default the step as lowered.
    fn prepare(&mut self, step: Self::Syscall) -> Self::Syscall {
        step
    }

    /// Notes the kernel's reply to the last script step, counted or
    /// not.
    fn observe(&mut self, _reply: &Self::Reply) {}

    /// Records the kernel's reply to a counted step.
    fn record(reply: &Self::Reply, evidence: &mut AttackEvidence);

    /// How many IPC handles the web interface holds by design: handle
    /// enumeration succeeds only beyond these.
    fn legitimate_handles() -> u64;

    /// The platform's web-interface factory, spawning `spawn`'s attacker
    /// over a fresh binding.
    fn factory(spawn: impl Fn(Self) -> Attacker<Self> + 'static) -> Self::Factory;
}

/// Lowers `program` through `binding` into a script. `handle` gives the
/// resolved handle of each looked-up process (`None` for a process not
/// looked up or not found).
///
/// The setup holds every op's setup steps, and the loop body every op's
/// loop steps and then the pacing sleep. Steps identical to an earlier
/// op's are issued once; the loop stops at the smallest of the program's
/// bound and the ops' own; and an iteration with no counted step ends
/// the script after setup.
///
/// # Errors
///
/// Returns the first op the binding leaves unbound.
pub fn lower<B: Binding>(
    binding: &mut B,
    program: AttackProgram,
    handle: impl Fn(Proc) -> Option<B::Handle>,
) -> Result<AttackScript<B::Syscall>, AttackOp> {
    let (mut setup, mut each) = (Vec::new(), Vec::new());
    let mut max_loops = program.bound;
    for &op in program.ops {
        let target = op.target().and_then(&handle);
        let lowered = binding.lower(op, target).ok_or(op)?;
        for (blocks, steps) in [(&mut setup, lowered.setup), (&mut each, lowered.loop_body)] {
            if !blocks.contains(&steps) {
                blocks.push(steps);
            }
        }
        max_loops = match (max_loops, lowered.max_loops) {
            (Some(b), Some(r)) => Some(b.min(r)),
            (b, r) => b.or(r),
        };
    }
    let mut loop_body = each.concat();
    if !loop_body.iter().any(|s| s.counted) {
        loop_body.clear();
    } else if let Some(pace) = program.pace {
        loop_body.push(AttackStep::pacing(B::sleep(pace)));
    }
    Ok(AttackScript {
        setup: setup.concat(),
        loop_body,
        max_loops,
    })
}

/// What the attacker runs once its warmup is over.
#[derive(Debug, Clone)]
pub enum Plan<S> {
    /// A catalogue program, lowered through the platform's binding after
    /// reconnaissance.
    Program(AttackProgram),
    /// A hand-written script, for an attacker that knows a layout no
    /// binding models.
    Script(AttackScript<S>),
}

impl<S> From<AttackId> for Plan<S> {
    fn from(attack: AttackId) -> Self {
        Plan::Program(attack.program())
    }
}

/// The compromised web interface, on any platform.
pub struct Attacker<B: Binding> {
    binding: B,
    plan: Option<Plan<B::Syscall>>,
    evidence: EvidenceLog,
    /// The lookups and the warmup sleep still to issue, in order; a
    /// lookup carries the process it resolves.
    prelude: std::vec::IntoIter<(Option<Proc>, B::Syscall)>,
    /// The process whose lookup reply is due next.
    awaiting: Option<Proc>,
    /// Each process's looked-up handle, by [`Proc::index`].
    resolved: [Option<B::Handle>; Proc::ALL.len()],
    runner: Option<ScriptRunner<B::Syscall>>,
}

impl<B: Binding> Attacker<B> {
    /// An attacker that runs `plan` over `binding` after `warmup`,
    /// recording into `evidence`.
    pub fn new(
        binding: B,
        plan: Plan<B::Syscall>,
        warmup: SimDuration,
        evidence: EvidenceLog,
    ) -> Self {
        let mut prelude: Vec<(Option<Proc>, B::Syscall)> = Vec::new();
        if let Plan::Program(program) = &plan {
            for &op in program.ops {
                if let (Some(target), Some(lookup)) = (op.target(), B::lookup(op)) {
                    if !prelude.iter().any(|(t, _)| *t == Some(target)) {
                        prelude.push((Some(target), lookup));
                    }
                }
            }
        }
        let at = if B::RESOLVE_FIRST { prelude.len() } else { 0 };
        prelude.insert(at, (None, B::sleep(warmup)));
        Attacker {
            binding,
            plan: Some(plan),
            evidence,
            prelude: prelude.into_iter(),
            awaiting: None,
            resolved: [None; Proc::ALL.len()],
            runner: None,
        }
    }

    /// The script the plan comes to after reconnaissance.
    fn script(&mut self) -> AttackScript<B::Syscall> {
        match self.plan.take().expect("the script is built once") {
            Plan::Script(script) => script,
            Plan::Program(program) => {
                let resolved = self.resolved;
                lower(&mut self.binding, program, |p| resolved[p.index()])
                    .unwrap_or_else(|op| panic!("{op} has no binding on this platform"))
            }
        }
    }
}

impl<B: Binding> Process for Attacker<B> {
    type Syscall = B::Syscall;
    type Reply = B::Reply;

    fn resume(&mut self, reply: Option<B::Reply>) -> Action<B::Syscall> {
        let step = if let Some(runner) = &mut self.runner {
            if let Some(r) = &reply {
                self.binding.observe(r);
            }
            let evidence = &self.evidence;
            runner.resume(reply, |r| B::record(r, &mut evidence.borrow_mut()))
        } else {
            if let Some(target) = self.awaiting.take() {
                self.resolved[target.index()] = B::handle(reply);
            }
            if let Some((target, syscall)) = self.prelude.next() {
                self.awaiting = target;
                return Action::Syscall(syscall);
            }
            let script = self.script();
            self.runner
                .insert(ScriptRunner::new(script, B::sleep(IDLE)))
                .step()
        };
        match step {
            Action::Syscall(step) => Action::Syscall(self.binding.prepare(step)),
            action => action,
        }
    }

    fn name(&self) -> &str {
        bas_core::proto::names::WEB
    }
}

/// The web-interface factory that mounts `plan` on `B`'s platform: the
/// attacker sleeps out `warmup` and records into `evidence`.
pub fn web_factory<B: Binding>(
    plan: impl Into<Plan<B::Syscall>>,
    warmup: SimDuration,
    evidence: &EvidenceLog,
) -> B::Factory {
    let (plan, evidence) = (plan.into(), evidence.clone());
    B::factory(move |binding| Attacker::new(binding, plan.clone(), warmup, evidence.clone()))
}
