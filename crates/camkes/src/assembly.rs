//! Assemblies: component instances wired by connections.

use crate::component::Component;

/// Connector types. The paper's system uses `seL4RPCCall` exclusively:
/// "We chose to use this type for our connections to avoid a scenario
/// where the malicious web interface could indefinitely block one of the
/// temperature controller's threads."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Connector {
    /// RPC over `seL4_Call`/`seL4_Reply` with a badged endpoint.
    Sel4RpcCall,
}

/// A named component instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique in the assembly.
    pub name: String,
    /// The component type.
    pub component: Component,
}

/// A connection from a client's used interface to a server's provided
/// interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Connection name.
    pub name: String,
    /// The connector type.
    pub connector: Connector,
    /// Client side: `(instance, used-interface)`.
    pub from: (String, String),
    /// Server side: `(instance, provided-interface)`.
    pub to: (String, String),
}

/// A complete system description.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assembly {
    /// All component instances.
    pub instances: Vec<Instance>,
    /// All connections.
    pub connections: Vec<Connection>,
}

impl Assembly {
    /// An empty assembly.
    pub fn new() -> Self {
        Assembly::default()
    }

    /// Adds an instance.
    pub fn instance(mut self, name: impl Into<String>, component: Component) -> Self {
        self.instances.push(Instance {
            name: name.into(),
            component,
        });
        self
    }

    /// Adds an `seL4RPCCall` connection.
    pub fn rpc_connection(
        mut self,
        name: impl Into<String>,
        from: (&str, &str),
        to: (&str, &str),
    ) -> Self {
        self.connections.push(Connection {
            name: name.into(),
            connector: Connector::Sel4RpcCall,
            from: (from.0.to_string(), from.1.to_string()),
            to: (to.0.to_string(), to.1.to_string()),
        });
        self
    }

    /// Finds an instance by name.
    pub fn find(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Structural validation: unique instance names, connection endpoints
    /// exist with the right directions, procedures match across each
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns one message per problem.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        let mut problems = Vec::new();
        let mut names = std::collections::BTreeSet::new();
        for inst in &self.instances {
            if !names.insert(inst.name.as_str()) {
                problems.push(format!("duplicate instance '{}'", inst.name));
            }
        }
        for conn in &self.connections {
            let client = self.find(&conn.from.0);
            let server = self.find(&conn.to.0);
            if client.is_none() {
                problems.push(format!(
                    "connection '{}': unknown client '{}'",
                    conn.name, conn.from.0
                ));
            }
            if server.is_none() {
                problems.push(format!(
                    "connection '{}': unknown server '{}'",
                    conn.name, conn.to.0
                ));
            }
            if let (Some(c), Some(s)) = (client, server) {
                let used = c.component.used(&conn.from.1);
                let provided = s.component.provided(&conn.to.1);
                if used.is_none() {
                    problems.push(format!(
                        "connection '{}': '{}' has no used interface '{}'",
                        conn.name, conn.from.0, conn.from.1
                    ));
                }
                if provided.is_none() {
                    problems.push(format!(
                        "connection '{}': '{}' has no provided interface '{}'",
                        conn.name, conn.to.0, conn.to.1
                    ));
                }
                if let (Some(u), Some(p)) = (used, provided) {
                    if u.procedure != p.procedure {
                        problems.push(format!(
                            "connection '{}': procedure mismatch ({} vs {})",
                            conn.name, u.procedure.name, p.procedure.name
                        ));
                    }
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
    use crate::component::Procedure;

    fn proc_() -> Procedure {
        Procedure::new("p", ["m1", "m2"])
    }

    fn valid() -> Assembly {
        Assembly::new()
            .instance("s", Component::new("server").provides("api", proc_()))
            .instance("c", Component::new("client").uses("api", proc_()))
            .rpc_connection("conn", ("c", "api"), ("s", "api"))
    }

    #[test]
    fn valid_assembly_validates() {
        assert!(valid().validate().is_ok());
    }

    #[test]
    fn unknown_instance_caught() {
        let a = valid().rpc_connection("bad", ("ghost", "api"), ("s", "api"));
        let problems = a.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("ghost")));
    }

    #[test]
    fn wrong_direction_caught() {
        // Client side names a *provided* interface.
        let a = Assembly::new()
            .instance("s", Component::new("server").provides("api", proc_()))
            .instance("c", Component::new("client").provides("api", proc_()))
            .rpc_connection("conn", ("c", "api"), ("s", "api"));
        let problems = a.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("no used interface")));
    }

    #[test]
    fn procedure_mismatch_caught() {
        let a = Assembly::new()
            .instance(
                "s",
                Component::new("server").provides("api", Procedure::new("p", ["x"])),
            )
            .instance("c", Component::new("client").uses("api", proc_()))
            .rpc_connection("conn", ("c", "api"), ("s", "api"));
        let problems = a.validate().unwrap_err();
        assert!(problems.iter().any(|p| p.contains("mismatch")));
    }

    #[test]
    fn duplicate_instances_caught() {
        let a = valid().instance("s", Component::new("another"));
        assert!(a.validate().is_err());
    }
}
