//! Benign web-interface behavior: a scripted administrator session.
//!
//! §II: the web interface "provides administrators a way to change the
//! desired room temperature setpoint". The benign schedule drives that
//! legitimate channel; attack variants (in `bas-attack`) replace the whole
//! process, modeling remote compromise.
//!
//! [`WebClient`] is the role's platform-neutral core: it decides what to
//! send and when, and records what came back. The one web process
//! (`Web` in [`crate::platform`]) connects to the controller and
//! translates the client's decisions into a platform's syscalls through
//! its binding.
//!
//! The schedule lives in a [`SharedSchedule`] cell owned by the engine's
//! [`AppIo`]: the engine re-images the cell on snapshot recycling, and the
//! client reads it lazily through a [`ScheduleCursor`], so per-instance
//! traffic survives the warm-boot path without respawning anything.
//! Completed requests are stamped into a [`RequestLog`] for latency
//! accounting.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bas_sim::time::{SimDuration, SimTime};

use crate::proto::BasMsg;
use crate::scenario::{AppIo, WebLog};

/// One administrator action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebAction {
    /// Change the setpoint (milli-°C).
    SetSetpoint(i32),
    /// Poll controller status.
    QueryStatus,
}

impl WebAction {
    /// The protocol request this action sends to the controller.
    pub fn request(self) -> BasMsg {
        match self {
            WebAction::SetSetpoint(milli_c) => BasMsg::SetpointUpdate { milli_c },
            WebAction::QueryStatus => BasMsg::StatusQuery,
        }
    }
}

/// A schedule's action list shared between the engine and the web
/// process. The engine overwrites the cell on boot re-imaging; cursors
/// pick the new contents up on their next wake.
pub type SharedSchedule = Rc<RefCell<Vec<(SimTime, WebAction)>>>;

/// Builds a [`SharedSchedule`], sorting the actions by time.
pub fn shared_schedule(mut actions: Vec<(SimTime, WebAction)>) -> SharedSchedule {
    actions.sort_by_key(|(t, _)| *t);
    Rc::new(RefCell::new(actions))
}

/// A web process's read position into a [`SharedSchedule`].
///
/// The actions live behind the shared cell, so a snapshot-recycled stack
/// can swap in the next instance's traffic without reconstructing the
/// process that reads it. The cursor resets to the front whenever the
/// cell is re-imaged (the stack rebuilds the process state on the `ran`
/// path and the pristine path never moved the cursor, so `next == 0` is
/// always correct after a swap).
#[derive(Debug, Clone)]
pub struct ScheduleCursor {
    actions: SharedSchedule,
    next: usize,
}

impl ScheduleCursor {
    /// A cursor at the front of `actions`.
    pub fn new(actions: SharedSchedule) -> Self {
        ScheduleCursor { actions, next: 0 }
    }

    /// The time of the next pending action.
    pub fn next_time(&self) -> Option<SimTime> {
        self.actions.borrow().get(self.next).map(|(t, _)| *t)
    }

    /// Appends every action due at `now` (scheduled time ≤ `now`) to
    /// `out`, with its scheduled time, advancing past all of them.
    pub fn drain_due(&mut self, now: SimTime, out: &mut impl Extend<(SimTime, WebAction)>) {
        let actions = self.actions.borrow();
        while let Some(&entry) = actions.get(self.next) {
            if entry.0 > now {
                break;
            }
            self.next += 1;
            out.extend(Some(entry));
        }
    }

    /// Actions not yet drained.
    pub fn remaining(&self) -> usize {
        self.actions.borrow().len().saturating_sub(self.next)
    }
}

/// One completed web request, stamped by the web process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSample {
    /// When the open-loop generator scheduled the request.
    pub scheduled: SimTime,
    /// When the web process observed the reply (the `GetTime`-class
    /// syscall after the RPC round-trip), so the latency
    /// `completed - scheduled` includes open-loop queueing delay.
    pub completed: SimTime,
    /// The action that was issued.
    pub action: WebAction,
    /// The reply decoded as a well-formed response.
    pub ok: bool,
}

/// Completed-request log shared between the engine and the web process;
/// cleared by the engine on boot re-imaging.
pub type RequestLog = Rc<RefCell<Vec<RequestSample>>>;

/// What the web role does after a clock read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebStep {
    /// Issue this action's RPC.
    Rpc(WebAction),
    /// Sleep this long, then read the clock again.
    Sleep(SimDuration),
}

/// How long the web server sleeps between clock reads once its session
/// script is exhausted (it keeps serving, modeled as long sleeps).
const IDLE_SLEEP: SimDuration = SimDuration::from_secs(3_600);

/// The web role's platform-neutral core, with no syscalls of its own.
///
/// It owns the schedule cursor, the response and request logs, the due
/// actions not yet sent, the action whose RPC is in flight and the
/// replied requests still waiting for a completion stamp. The web
/// process drives it with two calls:
///
/// - after every clock read, [`WebClient::on_clock`] says whether to
///   issue an RPC or to sleep;
/// - after every RPC reply, [`WebClient::on_reply`] puts the next action
///   of a same-tick burst in flight, to be issued at once; with none in
///   flight ([`WebClient::inflight`]), the process reads the clock.
///
/// A burst of due actions therefore costs one wake cycle, not one cycle
/// per request. Each completed request is stamped at the first clock read
/// after its reply, so the measured latency includes the open-loop
/// queueing delay.
#[derive(Debug)]
pub struct WebClient {
    schedule: ScheduleCursor,
    responses: WebLog,
    requests: RequestLog,
    /// Due actions not yet sent (same-tick burst tail).
    pending: VecDeque<(SimTime, WebAction)>,
    /// The action whose RPC is in flight.
    inflight: Option<(SimTime, WebAction)>,
    /// Replied requests awaiting a completion timestamp.
    unstamped: Vec<(SimTime, WebAction, bool)>,
}

impl WebClient {
    /// A client over the instance's schedule and logs.
    pub fn new(io: &AppIo) -> Self {
        WebClient {
            schedule: ScheduleCursor::new(io.schedule.clone()),
            responses: io.responses.clone(),
            requests: io.requests.clone(),
            pending: VecDeque::new(),
            inflight: None,
            unstamped: Vec::new(),
        }
    }

    /// The clock read `now`: stamps the replied requests, then issues the
    /// first due action or sleeps until the next one.
    pub fn on_clock(&mut self, now: SimTime) -> WebStep {
        self.requests
            .borrow_mut()
            .extend(
                self.unstamped
                    .drain(..)
                    .map(|(scheduled, action, ok)| RequestSample {
                        scheduled,
                        completed: now,
                        action,
                        ok,
                    }),
            );
        self.schedule.drain_due(now, &mut self.pending);
        match self.send_next() {
            Some(action) => WebStep::Rpc(action),
            None => WebStep::Sleep(self.schedule.next_time().map_or(IDLE_SLEEP, |t| t - now)),
        }
    }

    /// The in-flight RPC's reply, decoded (`None` when it failed or did
    /// not decode). Puts the next burst action, if any, in flight.
    pub fn on_reply(&mut self, reply: Option<BasMsg>) {
        if let Some(msg) = reply {
            self.responses.borrow_mut().push(msg);
        }
        if let Some((scheduled, action)) = self.inflight.take() {
            self.unstamped.push((scheduled, action, reply.is_some()));
        }
        self.send_next();
    }

    /// The action whose RPC is in flight, or is to be issued next after a
    /// reply (seL4 replies decode by request).
    pub fn inflight(&self) -> Option<WebAction> {
        self.inflight.map(|(_, action)| action)
    }

    fn send_next(&mut self) -> Option<WebAction> {
        self.inflight = self.pending.pop_front();
        self.inflight.map(|(_, action)| action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn actions_delivered_in_time_order() {
        let mut s = ScheduleCursor::new(shared_schedule(vec![
            (at(20), WebAction::QueryStatus),
            (at(10), WebAction::SetSetpoint(24_000)),
        ]));
        assert_eq!(s.next_time(), Some(at(10)));
        let mut out = Vec::new();
        s.drain_due(at(5), &mut out);
        assert!(out.is_empty(), "not due yet");
        s.drain_due(at(10), &mut out);
        assert_eq!(out, vec![(at(10), WebAction::SetSetpoint(24_000))]);
        s.drain_due(at(30), &mut out);
        assert_eq!(out[1], (at(20), WebAction::QueryStatus));
        s.drain_due(at(40), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn idle_schedule_never_acts() {
        let mut s = ScheduleCursor::new(shared_schedule(Vec::new()));
        assert_eq!(s.next_time(), None);
        let mut out = Vec::new();
        s.drain_due(at(1_000_000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn drain_due_delivers_same_tick_bursts_at_once() {
        let mut s = ScheduleCursor::new(shared_schedule(vec![
            (at(10), WebAction::QueryStatus),
            (at(10), WebAction::SetSetpoint(23_000)),
            (at(20), WebAction::QueryStatus),
        ]));
        let mut out = Vec::new();
        s.drain_due(at(5), &mut out);
        assert!(out.is_empty());
        s.drain_due(at(10), &mut out);
        assert_eq!(
            out,
            vec![
                (at(10), WebAction::QueryStatus),
                (at(10), WebAction::SetSetpoint(23_000)),
            ]
        );
        assert_eq!(s.remaining(), 1);
        out.clear();
        s.drain_due(at(30), &mut out);
        assert_eq!(out, vec![(at(20), WebAction::QueryStatus)]);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn cursor_follows_shared_cell_reimaging() {
        let cell = shared_schedule(vec![(at(10), WebAction::QueryStatus)]);
        let mut cursor = ScheduleCursor::new(cell.clone());
        let mut out = Vec::new();
        cursor.drain_due(at(10), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(cursor.remaining(), 0);
        // Stack re-images the cell for the next instance; a fresh cursor
        // (rebuilt boot state) sees the new traffic.
        *cell.borrow_mut() = vec![
            (at(1), WebAction::SetSetpoint(22_100)),
            (at(2), WebAction::QueryStatus),
        ];
        let mut cursor = ScheduleCursor::new(cell);
        assert_eq!(cursor.next_time(), Some(at(1)));
        out.clear();
        cursor.drain_due(at(2), &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn client_sends_a_burst_in_one_wake_and_stamps_it_at_the_next_clock_read() {
        let io = AppIo::new(&ScenarioConfig {
            web_schedule: vec![
                (at(10), WebAction::QueryStatus),
                (at(10), WebAction::SetSetpoint(23_000)),
                (at(20), WebAction::QueryStatus),
            ],
            ..ScenarioConfig::default()
        });
        let mut web = WebClient::new(&io);
        assert_eq!(
            web.on_clock(at(0)),
            WebStep::Sleep(SimDuration::from_secs(10))
        );
        assert_eq!(web.on_clock(at(10)), WebStep::Rpc(WebAction::QueryStatus));
        assert_eq!(web.inflight(), Some(WebAction::QueryStatus));
        let ack = BasMsg::Ack { code: 0 };
        web.on_reply(Some(ack));
        assert_eq!(
            web.inflight(),
            Some(WebAction::SetSetpoint(23_000)),
            "burst tail goes out without a clock read"
        );
        web.on_reply(None);
        assert_eq!(web.inflight(), None, "burst drained: read the clock");
        assert!(
            io.requests.borrow().is_empty(),
            "stamped only on a clock read"
        );
        assert_eq!(
            web.on_clock(at(11)),
            WebStep::Sleep(SimDuration::from_secs(9))
        );
        let stamps: Vec<_> = io
            .requests
            .borrow()
            .iter()
            .map(|r| (r.scheduled, r.completed, r.ok))
            .collect();
        assert_eq!(
            stamps,
            vec![(at(10), at(11), true), (at(10), at(11), false)]
        );
        assert_eq!(*io.responses.borrow(), vec![ack]);
        assert_eq!(web.on_clock(at(20)), WebStep::Rpc(WebAction::QueryStatus));
        web.on_reply(None);
        assert_eq!(web.on_clock(at(21)), WebStep::Sleep(IDLE_SLEEP));
    }
}
