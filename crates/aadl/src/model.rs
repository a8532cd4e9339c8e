//! Semantic model of the AADL subset.

/// Direction of a process port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDirection {
    /// The process sends on this port.
    Out,
    /// The process receives on this port.
    In,
}

/// An event/data port on a process type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name, unique within its process.
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// The message type carried on this port (`BAS::msg_type`), required
    /// for `out` ports so the ACM backend can authorize the channel at
    /// message-type granularity.
    pub msg_type: Option<u32>,
}

/// A process type declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessType {
    /// Type name (e.g. `TempSensorProcess`).
    pub name: String,
    /// Declared ports.
    pub ports: Vec<Port>,
    /// The `BAS::ac_id` property — the access-control identity the
    /// paper's compiler extracts.
    pub ac_id: Option<u32>,
}

impl ProcessType {
    /// Finds a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }
}

/// A directed port connection inside the system implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Connection label (e.g. `c1`).
    pub name: String,
    /// Source `(subcomponent, out-port)`.
    pub from: (String, String),
    /// Sink `(subcomponent, in-port)`.
    pub to: (String, String),
}

/// The system implementation: instances plus connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemImpl {
    /// Implementation name (e.g. `TempControlSystem.impl`).
    pub name: String,
    /// `(instance name, process type name)` pairs.
    pub subcomponents: Vec<(String, String)>,
    /// Port connections.
    pub connections: Vec<Connection>,
}

impl SystemImpl {
    /// The process type name behind an instance.
    pub fn type_of(&self, instance: &str) -> Option<&str> {
        self.subcomponents
            .iter()
            .find(|(i, _)| i == instance)
            .map(|(_, t)| t.as_str())
    }
}

/// A parsed AADL model: process types plus (at most) one system
/// implementation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AadlModel {
    /// All process type declarations.
    pub processes: Vec<ProcessType>,
    /// The system implementation, if declared.
    pub system: Option<SystemImpl>,
}

impl AadlModel {
    /// Finds a process type by name.
    pub fn process(&self, name: &str) -> Option<&ProcessType> {
        self.processes.iter().find(|p| p.name == name)
    }

    /// Resolves an instance name to its process type.
    pub fn process_of_instance(&self, instance: &str) -> Option<&ProcessType> {
        let sys = self.system.as_ref()?;
        self.process(sys.type_of(instance)?)
    }

    /// Semantic validation. Checks, in the spirit of the paper's
    /// compiler:
    ///
    /// - every process has a unique `ac_id`,
    /// - subcomponents reference declared process types,
    /// - connections go `out` port → `in` port of declared instances,
    /// - every connected `out` port declares a `msg_type`.
    ///
    /// # Errors
    ///
    /// Returns one message per problem.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();

        let mut ac_ids = std::collections::BTreeMap::new();
        for p in &self.processes {
            match p.ac_id {
                None => problems.push(format!("process {} has no BAS::ac_id", p.name)),
                Some(id) => {
                    if let Some(prev) = ac_ids.insert(id, p.name.clone()) {
                        problems.push(format!("ac_id {id} used by both {prev} and {}", p.name));
                    }
                }
            }
            let mut seen = std::collections::BTreeSet::new();
            for port in &p.ports {
                if !seen.insert(port.name.as_str()) {
                    problems.push(format!("duplicate port {}.{}", p.name, port.name));
                }
            }
        }

        let Some(sys) = &self.system else {
            return if problems.is_empty() {
                Ok(())
            } else {
                Err(problems)
            };
        };

        let mut instances = std::collections::BTreeSet::new();
        for (inst, ty) in &sys.subcomponents {
            if !instances.insert(inst.as_str()) {
                problems.push(format!("duplicate subcomponent '{inst}'"));
            }
            if self.process(ty).is_none() {
                problems.push(format!(
                    "subcomponent '{inst}' references unknown type '{ty}'"
                ));
            }
        }

        for c in &sys.connections {
            let src = self.process_of_instance(&c.from.0);
            let dst = self.process_of_instance(&c.to.0);
            if src.is_none() {
                problems.push(format!(
                    "connection {}: unknown source instance '{}'",
                    c.name, c.from.0
                ));
            }
            if dst.is_none() {
                problems.push(format!(
                    "connection {}: unknown sink instance '{}'",
                    c.name, c.to.0
                ));
            }
            if let Some(src) = src {
                match src.port(&c.from.1) {
                    Some(p) if p.direction == PortDirection::Out => {
                        if p.msg_type.is_none() {
                            problems.push(format!(
                                "connection {}: out port {}.{} has no BAS::msg_type",
                                c.name, c.from.0, c.from.1
                            ));
                        }
                    }
                    Some(_) => problems.push(format!(
                        "connection {}: {}.{} is not an out port",
                        c.name, c.from.0, c.from.1
                    )),
                    None => problems.push(format!(
                        "connection {}: no port {}.{}",
                        c.name, c.from.0, c.from.1
                    )),
                }
            }
            if let Some(dst) = dst {
                match dst.port(&c.to.1) {
                    Some(p) if p.direction == PortDirection::In => {}
                    Some(_) => problems.push(format!(
                        "connection {}: {}.{} is not an in port",
                        c.name, c.to.0, c.to.1
                    )),
                    None => problems.push(format!(
                        "connection {}: no port {}.{}",
                        c.name, c.to.0, c.to.1
                    )),
                }
            }
        }

        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AadlModel {
        AadlModel {
            processes: vec![
                ProcessType {
                    name: "A".into(),
                    ports: vec![Port {
                        name: "o".into(),
                        direction: PortDirection::Out,
                        msg_type: Some(1),
                    }],
                    ac_id: Some(100),
                },
                ProcessType {
                    name: "B".into(),
                    ports: vec![Port {
                        name: "i".into(),
                        direction: PortDirection::In,
                        msg_type: None,
                    }],
                    ac_id: Some(101),
                },
            ],
            system: Some(SystemImpl {
                name: "S.impl".into(),
                subcomponents: vec![("a".into(), "A".into()), ("b".into(), "B".into())],
                connections: vec![Connection {
                    name: "c1".into(),
                    from: ("a".into(), "o".into()),
                    to: ("b".into(), "i".into()),
                }],
            }),
        }
    }

    #[test]
    fn valid_model_validates() {
        assert_eq!(model().validate(), Ok(()));
    }

    #[test]
    fn missing_ac_id_caught() {
        let mut m = model();
        m.processes[0].ac_id = None;
        assert!(m
            .validate()
            .unwrap_err()
            .iter()
            .any(|p| p.contains("ac_id")));
    }

    #[test]
    fn duplicate_ac_id_caught() {
        let mut m = model();
        m.processes[1].ac_id = Some(100);
        assert!(m
            .validate()
            .unwrap_err()
            .iter()
            .any(|p| p.contains("used by both")));
    }

    #[test]
    fn wrong_direction_caught() {
        let mut m = model();
        // Reverse the connection: in → out.
        m.system.as_mut().unwrap().connections[0] = Connection {
            name: "c1".into(),
            from: ("b".into(), "i".into()),
            to: ("a".into(), "o".into()),
        };
        let errs = m.validate().unwrap_err();
        assert!(errs.iter().any(|p| p.contains("not an out port")));
        assert!(errs.iter().any(|p| p.contains("not an in port")));
    }

    #[test]
    fn missing_msg_type_on_connected_out_port_caught() {
        let mut m = model();
        m.processes[0].ports[0].msg_type = None;
        assert!(m
            .validate()
            .unwrap_err()
            .iter()
            .any(|p| p.contains("msg_type")));
    }

    #[test]
    fn unknown_instance_caught() {
        let mut m = model();
        m.system.as_mut().unwrap().connections[0].from.0 = "ghost".into();
        assert!(m
            .validate()
            .unwrap_err()
            .iter()
            .any(|p| p.contains("ghost")));
    }

    #[test]
    fn instance_resolution() {
        let m = model();
        assert_eq!(m.process_of_instance("a").unwrap().name, "A");
        assert!(m.process_of_instance("zz").is_none());
    }
}
