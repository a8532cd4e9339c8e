//! Structured event trace shared by the three simulated kernels.
//!
//! A record is a [`TraceEvent`]: its time, the process it is attributed
//! to, and a typed *detail* that each kernel defines for itself (see
//! [`TraceDetail`]). The detail holds the ids and numbers the kernel
//! already has in hand — endpoints, pids, message types, device ids,
//! error enums — so recording a per-message or per-syscall event is one
//! push of a small value and never touches the heap. Text is produced
//! only when an event is displayed.

use std::fmt;

use crate::process::Pid;
use crate::time::SimTime;

/// A kernel's typed record payload: names its category and renders the
/// human-readable detail text.
pub trait TraceDetail: fmt::Display {
    /// Stable category tag used for filtering, e.g. `"ipc.deliver"`,
    /// `"acm.deny"`, `"signal.kill"`.
    fn category(&self) -> &'static str;
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent<D> {
    /// Virtual time of the event.
    pub time: SimTime,
    /// Process the event is attributed to, if any.
    pub pid: Option<Pid>,
    /// What happened.
    pub detail: D,
}

impl<D: TraceDetail> TraceEvent<D> {
    /// The detail's category tag.
    pub fn category(&self) -> &'static str {
        self.detail.category()
    }
}

impl<D: TraceDetail> fmt::Display for TraceEvent<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pid {
            Some(pid) => write!(
                f,
                "[{}] {} {}: {}",
                self.time,
                pid,
                self.category(),
                self.detail
            ),
            None => write!(f, "[{}] - {}: {}", self.time, self.category(), self.detail),
        }
    }
}

/// An append-only event log with bounded memory.
///
/// ```
/// use std::fmt;
///
/// use bas_sim::time::SimTime;
/// use bas_sim::trace::{TraceDetail, TraceLog};
///
/// struct Boot;
///
/// impl fmt::Display for Boot {
///     fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
///         write!(f, "kernel up")
///     }
/// }
///
/// impl TraceDetail for Boot {
///     fn category(&self) -> &'static str {
///         "boot"
///     }
/// }
///
/// let mut log = TraceLog::new();
/// log.record(SimTime::ZERO, None, Boot);
/// assert_eq!(log.events_in("boot").count(), 1);
/// assert_eq!(log.events()[0].to_string(), "[0.000000s] - boot: kernel up");
/// ```
#[derive(Debug, Clone)]
pub struct TraceLog<D> {
    events: Vec<TraceEvent<D>>,
    capacity: usize,
    dropped: u64,
    enabled: bool,
}

impl<D> Default for TraceLog<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D> TraceLog<D> {
    /// Default maximum number of retained events.
    pub const DEFAULT_CAPACITY: usize = 1_000_000;

    /// Creates an enabled log with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a log that retains at most `capacity` events; further events
    /// are counted but discarded.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            events: Vec::new(),
            capacity,
            dropped: 0,
            enabled: true,
        }
    }

    /// Disables recording entirely (used by throughput benchmarks).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Appends an event. The only heap traffic is the event buffer's own
    /// geometric growth (and whatever `detail` itself owns).
    pub fn record(&mut self, time: SimTime, pid: Option<Pid>, detail: D) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent { time, pid, detail });
    }

    /// All retained events in order.
    pub fn events(&self) -> &[TraceEvent<D>] {
        &self.events
    }

    /// Number of events discarded due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears retained events (capacity and enablement unchanged).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

impl<D: TraceDetail> TraceLog<D> {
    /// Events whose category equals `category`.
    pub fn events_in<'a>(
        &'a self,
        category: &'a str,
    ) -> impl Iterator<Item = &'a TraceEvent<D>> + 'a {
        self.events.iter().filter(move |e| e.category() == category)
    }

    /// Events whose category starts with `prefix` (e.g. `"ipc."`).
    pub fn events_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = &'a TraceEvent<D>> + 'a {
        self.events
            .iter()
            .filter(move |e| e.category().starts_with(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test detail: its category and a number.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Tag(&'static str, u32);

    impl fmt::Display for Tag {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "n={}", self.1)
        }
    }

    impl TraceDetail for Tag {
        fn category(&self) -> &'static str {
            self.0
        }
    }

    fn ev(log: &mut TraceLog<Tag>, cat: &'static str, n: u32) {
        log.record(SimTime::ZERO, Some(Pid::new(1)), Tag(cat, n));
    }

    #[test]
    fn category_filtering() {
        let mut log = TraceLog::new();
        ev(&mut log, "ipc.deliver", 1);
        ev(&mut log, "ipc.deny", 2);
        ev(&mut log, "signal.kill", 3);
        assert_eq!(log.events_in("ipc.deny").count(), 1);
        assert_eq!(log.events_with_prefix("ipc.").count(), 2);
        assert_eq!(log.events().len(), 3);
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let mut log = TraceLog::with_capacity(2);
        ev(&mut log, "x", 1);
        ev(&mut log, "x", 2);
        ev(&mut log, "x", 3);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[1].detail, Tag("x", 2));
        assert_eq!(log.dropped(), 1);
        log.clear();
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new();
        log.disable();
        ev(&mut log, "x", 1);
        assert!(log.events().is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn display_renders_time_pid_category_and_detail() {
        let e = TraceEvent {
            time: SimTime::from_nanos(1_000),
            pid: Some(Pid::new(4)),
            detail: Tag("acm.deny", 7),
        };
        assert_eq!(e.to_string(), "[0.000001s] pid4 acm.deny: n=7");
        let e = TraceEvent { pid: None, ..e };
        assert_eq!(e.to_string(), "[0.000001s] - acm.deny: n=7");
    }
}
