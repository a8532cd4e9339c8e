//! AADL → Linux message-queue plan.
//!
//! The Linux baseline has no compiled-in policy; the closest artifact is
//! the scenario loader's queue setup — "The scenario process in Linux
//! spawns all other processes and creates 6 message queues that are needed
//! for various communications" (§IV-C). This backend derives that plan:
//! one queue per connected in-port, naming its reader and its intended
//! writers, so the loader can choose owners and modes.

use std::collections::BTreeMap;
use std::fmt;

use crate::model::AadlModel;

/// One queue the loader must create.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePlan {
    /// VFS queue name (`/mq_<instance>_<port>`).
    pub name: String,
    /// The instance that reads from the queue.
    pub reader: String,
    /// The instances intended to write to it (DAC cannot actually
    /// enforce this set — that is the point of the paper's Linux
    /// comparison).
    pub writers: Vec<String>,
}

/// The full queue plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinuxIpcPlan {
    /// All queues, sorted by name.
    pub queues: Vec<QueuePlan>,
}

impl LinuxIpcPlan {
    /// The queue feeding `instance.port`, if planned.
    pub fn queue_for(&self, instance: &str, port: &str) -> Option<&QueuePlan> {
        let name = queue_name(instance, port);
        self.queues.iter().find(|q| q.name == name)
    }
}

/// The canonical queue name for an in-port.
pub fn queue_name(instance: &str, port: &str) -> String {
    format!("/mq_{instance}_{port}")
}

/// Errors from the Linux backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinuxPlanError {
    /// The model failed validation.
    InvalidModel(Vec<String>),
    /// The model has no system implementation.
    NoSystem,
}

impl fmt::Display for LinuxPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinuxPlanError::InvalidModel(problems) => {
                write!(f, "invalid aadl model: {}", problems.join("; "))
            }
            LinuxPlanError::NoSystem => write!(f, "no system implementation in model"),
        }
    }
}

impl std::error::Error for LinuxPlanError {}

/// Derives the queue plan from a validated model.
///
/// # Errors
///
/// Returns [`LinuxPlanError::InvalidModel`] or [`LinuxPlanError::NoSystem`].
pub fn compile(model: &AadlModel) -> Result<LinuxIpcPlan, LinuxPlanError> {
    model.validate().map_err(LinuxPlanError::InvalidModel)?;
    let sys = model.system.as_ref().ok_or(LinuxPlanError::NoSystem)?;

    let mut queues: BTreeMap<String, QueuePlan> = BTreeMap::new();
    for conn in &sys.connections {
        let name = queue_name(&conn.to.0, &conn.to.1);
        let entry = queues.entry(name.clone()).or_insert_with(|| QueuePlan {
            name,
            reader: conn.to.0.clone(),
            writers: Vec::new(),
        });
        if !entry.writers.contains(&conn.from.0) {
            entry.writers.push(conn.from.0.clone());
        }
    }
    Ok(LinuxIpcPlan {
        queues: queues.into_values().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r"
        process Sensor
        features
          data_out: out event data port { BAS::msg_type => 1; };
        properties
          BAS::ac_id => 100;
        end Sensor;

        process Web
        features
          setpoint_out: out event data port { BAS::msg_type => 4; };
        properties
          BAS::ac_id => 104;
        end Web;

        process Control
        features
          sensor_in: in event data port;
          setpoint_in: in event data port;
        properties
          BAS::ac_id => 101;
        end Control;

        system implementation S.impl
        subcomponents
          sens: process Sensor.imp;
          web: process Web.imp;
          ctrl: process Control.imp;
        connections
          c1: port sens.data_out -> ctrl.sensor_in;
          c2: port web.setpoint_out -> ctrl.setpoint_in;
        end S.impl;
    ";

    #[test]
    fn one_queue_per_connected_in_port() {
        let plan = compile(&parse(SRC).unwrap()).unwrap();
        assert_eq!(plan.queues.len(), 2);
        let q = plan.queue_for("ctrl", "sensor_in").unwrap();
        assert_eq!(q.reader, "ctrl");
        assert_eq!(q.writers, vec!["sens".to_string()]);
        assert_eq!(q.name, "/mq_ctrl_sensor_in");
        assert!(plan.queue_for("ctrl", "nothing").is_none());
    }

    #[test]
    fn multiple_writers_merge_into_one_queue() {
        let src = SRC.replace(
            "c2: port web.setpoint_out -> ctrl.setpoint_in;",
            "c2: port web.setpoint_out -> ctrl.sensor_in;",
        );
        let plan = compile(&parse(&src).unwrap()).unwrap();
        assert_eq!(plan.queues.len(), 1);
        let q = plan.queue_for("ctrl", "sensor_in").unwrap();
        assert_eq!(q.writers, vec!["sens".to_string(), "web".to_string()]);
    }

    #[test]
    fn no_system_rejected() {
        let mut m = parse(SRC).unwrap();
        m.system = None;
        assert_eq!(compile(&m).unwrap_err(), LinuxPlanError::NoSystem);
    }
}
