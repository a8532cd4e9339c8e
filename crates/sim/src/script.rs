//! Generic scripted processes, usable with any platform's syscall types.
//!
//! The MINIX, seL4 and Linux tests, attack payloads and IPC fixtures all
//! use this one type.

use std::cell::RefCell;
use std::rc::Rc;

use crate::process::{Action, Process};

/// Shared handle to a script's recorded replies. Entry *i* is the reply
/// delivered before step *i* was issued (entry 0 is always `None`).
pub type ScriptLog<R> = Rc<RefCell<Vec<Option<R>>>>;

/// A process that issues a fixed sequence of syscalls and exits, or loops
/// forever.
///
/// ```
/// use bas_sim::process::{Action, Process};
/// use bas_sim::script::Script;
///
/// let mut p: Script<u32, ()> = Script::new(vec![1, 2]);
/// assert!(matches!(p.resume(None), Action::Syscall(1)));
/// assert!(matches!(p.resume(None), Action::Syscall(2)));
/// assert!(matches!(p.resume(None), Action::Exit(0)));
/// ```
pub struct Script<S, R> {
    name: String,
    steps: Vec<S>,
    idx: usize,
    log: Option<ScriptLog<R>>,
    looping: bool,
}

impl<S: Clone, R> Script<S, R> {
    /// A one-shot script.
    pub fn new(steps: Vec<S>) -> Self {
        Script {
            name: "script".into(),
            steps,
            idx: 0,
            log: None,
            looping: false,
        }
    }

    /// A named one-shot script.
    pub fn named(name: impl Into<String>, steps: Vec<S>) -> Self {
        Script {
            name: name.into(),
            ..Script::new(steps)
        }
    }

    /// A script that repeats its steps forever.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn looping(steps: Vec<S>) -> Self {
        assert!(!steps.is_empty(), "looping script needs at least one step");
        Script {
            looping: true,
            ..Script::new(steps)
        }
    }

    /// Attaches a shared reply log.
    pub fn logged(mut self) -> (Self, ScriptLog<R>) {
        let log: ScriptLog<R> = Rc::new(RefCell::new(Vec::new()));
        self.log = Some(log.clone());
        (self, log)
    }
}

impl<S: Clone, R> Process for Script<S, R> {
    type Syscall = S;
    type Reply = R;

    fn resume(&mut self, reply: Option<R>) -> Action<S> {
        if let Some(log) = &self.log {
            log.borrow_mut().push(reply);
        }
        if self.idx >= self.steps.len() {
            if self.looping {
                self.idx = 0;
            } else {
                return Action::Exit(0);
            }
        }
        let step = self.steps[self.idx].clone();
        self.idx += 1;
        Action::Syscall(step)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Extracts the non-`None` replies from a [`ScriptLog`].
pub fn replies<R: Clone>(log: &ScriptLog<R>) -> Vec<R> {
    log.borrow().iter().flatten().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_order_and_exit() {
        let (mut p, log): (Script<u8, u8>, _) = Script::new(vec![10, 20]).logged();
        let _ = p.resume(None);
        let _ = p.resume(Some(1));
        assert!(matches!(p.resume(Some(2)), Action::Exit(0)));
        assert_eq!(replies(&log), vec![1, 2]);
    }

    #[test]
    fn log_starts_with_none_and_holds_one_entry_per_resume() {
        let (mut p, log): (Script<u8, u8>, _) = Script::new(vec![10, 20]).logged();
        let _ = p.resume(None);
        let _ = p.resume(Some(1));
        let _ = p.resume(Some(2));
        assert_eq!(log.borrow().len(), 3);
        assert_eq!(log.borrow()[0], None);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_looping_script_rejected() {
        let _: Script<u8, ()> = Script::looping(vec![]);
    }

    #[test]
    fn looping_never_exits() {
        let mut p: Script<u8, ()> = Script::looping(vec![1]);
        for _ in 0..100 {
            assert!(matches!(p.resume(None), Action::Syscall(1)));
        }
    }

    #[test]
    fn named_script_reports_name() {
        let p: Script<u8, ()> = Script::named("attacker", vec![1]);
        assert_eq!(p.name(), "attacker");
    }
}
