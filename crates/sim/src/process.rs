//! Processes as resumable state machines.
//!
//! Every user-level program in the simulation — the BAS control processes,
//! system servers, and attack payloads alike — implements [`Process`]. A
//! kernel drives a process by calling [`Process::resume`], handing it the
//! reply to its previous system call; the process runs until its next system
//! call and returns an [`Action`]. Blocking is expressed by the kernel simply
//! not resuming the process again until the blocking condition resolves.

use std::fmt;

/// A process identifier, unique for the lifetime of one simulated kernel.
///
/// ```
/// use bas_sim::process::Pid;
/// let p = Pid::new(3);
/// assert_eq!(p.as_u32(), 3);
/// assert_eq!(format!("{p}"), "pid3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(u32);

impl Pid {
    /// Creates a pid from a raw index.
    pub const fn new(raw: u32) -> Self {
        Pid(raw)
    }

    /// The raw index.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// The raw index as a usize, for table addressing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// What a process does when resumed: trap into the kernel, yield its
/// quantum, or terminate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<S> {
    /// Trap into the kernel with a platform-specific system call.
    Syscall(S),
    /// Give up the CPU voluntarily; resumed later with no reply.
    Yield,
    /// Terminate with an exit code.
    Exit(i32),
}

/// A resumable user-level program.
///
/// `Syscall` and `Reply` are defined by each platform (`bas-minix`,
/// `bas-sel4`, `bas-linux`); the same application logic is ported across
/// platforms by wrapping a shared pure core in thin per-platform adapters,
/// exactly as the paper ports the temperature-control scenario.
pub trait Process {
    /// The platform's system-call request type.
    type Syscall;
    /// The platform's system-call reply type.
    type Reply;

    /// Runs the process until its next system call.
    ///
    /// `reply` carries the result of the previous syscall, or `None` on the
    /// first resume and after a `Yield`.
    fn resume(&mut self, reply: Option<Self::Reply>) -> Action<Self::Syscall>;

    /// Human-readable name used in traces.
    fn name(&self) -> &str {
        "anon"
    }
}

/// Scheduling state of a process, generic over the platform's blocking
/// reason type `B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcState<B> {
    /// Eligible to run.
    Runnable,
    /// Waiting on a platform-specific condition (IPC rendezvous, queue
    /// space, a signal, ...).
    Blocked(B),
    /// Waiting for the timer queue to fire.
    Sleeping,
    /// Terminated; slot may be reused with a new generation.
    Dead,
}

impl<B> ProcState<B> {
    /// True if the process may be scheduled.
    pub fn is_runnable(&self) -> bool {
        matches!(self, ProcState::Runnable)
    }
}

/// A boxed process for a given platform, the form kernels store in their
/// process tables.
pub type BoxedProcess<S, R> = Box<dyn Process<Syscall = S, Reply = R>>;

/// Fault injection: runs the inner process normally, then crashes it
/// (exit code 99) after a fixed number of resumes.
///
/// Used by the recovery experiments to model a driver hitting a fatal
/// bug mid-operation — the failure class MINIX 3's reincarnation design
/// exists for.
///
/// ```
/// use bas_sim::process::{Action, CrashAfter, Process};
///
/// struct Busy;
/// impl Process for Busy {
///     type Syscall = ();
///     type Reply = ();
///     fn resume(&mut self, _: Option<()>) -> Action<()> {
///         Action::Yield
///     }
/// }
///
/// let mut p = CrashAfter::new(Busy, 2);
/// assert!(matches!(p.resume(None), Action::Yield));
/// assert!(matches!(p.resume(None), Action::Yield));
/// assert!(matches!(p.resume(None), Action::Exit(99)));
/// ```
pub struct CrashAfter<P> {
    inner: P,
    remaining: u64,
}

impl<P> CrashAfter<P> {
    /// Exit code reported by an injected crash.
    pub const CRASH_CODE: i32 = 99;

    /// Wraps `inner`, letting it run for `resumes` scheduler resumes
    /// before the injected crash.
    pub fn new(inner: P, resumes: u64) -> Self {
        CrashAfter {
            inner,
            remaining: resumes,
        }
    }
}

impl<P: Process> Process for CrashAfter<P> {
    type Syscall = P::Syscall;
    type Reply = P::Reply;

    fn resume(&mut self, reply: Option<P::Reply>) -> Action<P::Syscall> {
        if self.remaining == 0 {
            return Action::Exit(Self::CRASH_CODE);
        }
        self.remaining -= 1;
        self.inner.resume(reply)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A factory producing fresh program instances, used by the program
/// registries that model on-disk binaries for `fork`-style calls.
pub type ProgramFactory<S, R> = Box<dyn Fn() -> BoxedProcess<S, R>>;

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        remaining: u32,
    }

    impl Process for Echo {
        type Syscall = u32;
        type Reply = u32;
        fn resume(&mut self, reply: Option<u32>) -> Action<u32> {
            if let Some(r) = reply {
                assert_eq!(r, self.remaining + 1);
            }
            if self.remaining == 0 {
                return Action::Exit(0);
            }
            self.remaining -= 1;
            Action::Syscall(self.remaining)
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn process_trap_loop_reaches_exit() {
        let mut p = Echo { remaining: 3 };
        let mut reply = None;
        let mut syscalls = Vec::new();
        loop {
            match p.resume(reply.take()) {
                Action::Syscall(s) => {
                    syscalls.push(s);
                    reply = Some(s + 1);
                }
                Action::Yield => unreachable!(),
                Action::Exit(code) => {
                    assert_eq!(code, 0);
                    break;
                }
            }
        }
        assert_eq!(syscalls, vec![2, 1, 0]);
    }

    #[test]
    fn proc_state_predicates() {
        let runnable: ProcState<&'static str> = ProcState::Runnable;
        assert!(runnable.is_runnable());
        let blocked: ProcState<&'static str> = ProcState::Blocked("sending");
        assert!(!blocked.is_runnable());
    }

    #[test]
    fn pid_display_and_accessors() {
        let p = Pid::new(7);
        assert_eq!(p.as_usize(), 7);
        assert_eq!(format!("{p}"), "pid7");
    }
}
