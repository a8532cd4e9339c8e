//! Components: typed bundles of provided/used RPC interfaces and hardware
//! dependencies.

use bas_sel4::rights::CapRights;
use bas_sim::device::DeviceId;

/// An RPC procedure: a named set of methods. A method's index is its wire
/// label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Procedure {
    /// Procedure name.
    pub name: String,
    /// Method names; index = RPC label.
    pub methods: Vec<String>,
}

impl Procedure {
    /// Creates a procedure with the given methods.
    pub fn new<I, S>(name: impl Into<String>, methods: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Procedure {
            name: name.into(),
            methods: methods.into_iter().map(Into::into).collect(),
        }
    }

    /// The wire label of a method, if declared.
    pub fn label_of(&self, method: &str) -> Option<u64> {
        self.methods
            .iter()
            .position(|m| m == method)
            .map(|i| i as u64)
    }

    /// The method name behind a wire label.
    pub fn method_of(&self, label: u64) -> Option<&str> {
        self.methods.get(label as usize).map(String::as_str)
    }
}

/// A named interface on a component (an instantiated procedure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interface {
    /// Interface name unique within the component.
    pub name: String,
    /// The procedure exposed or consumed.
    pub procedure: Procedure,
}

/// A hardware dependency: the component needs a device capability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareDecl {
    /// Dependency name unique within the component.
    pub name: String,
    /// The device.
    pub dev: DeviceId,
    /// Rights the instance receives on the device frame.
    pub rights: CapRights,
}

/// A component type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component type name.
    pub name: String,
    /// Interfaces this component implements (it is the RPC server).
    pub provides: Vec<Interface>,
    /// Interfaces this component calls (it is the RPC client).
    pub uses: Vec<Interface>,
    /// Device frames this component needs.
    pub hardware: Vec<HardwareDecl>,
}

impl Component {
    /// Creates an empty component type.
    pub fn new(name: impl Into<String>) -> Self {
        Component {
            name: name.into(),
            provides: Vec::new(),
            uses: Vec::new(),
            hardware: Vec::new(),
        }
    }

    /// Declares a provided interface.
    pub fn provides(mut self, iface: impl Into<String>, procedure: Procedure) -> Self {
        self.provides.push(Interface {
            name: iface.into(),
            procedure,
        });
        self
    }

    /// Declares a used interface.
    pub fn uses(mut self, iface: impl Into<String>, procedure: Procedure) -> Self {
        self.uses.push(Interface {
            name: iface.into(),
            procedure,
        });
        self
    }

    /// Declares a hardware dependency.
    pub fn hardware(mut self, name: impl Into<String>, dev: DeviceId, rights: CapRights) -> Self {
        self.hardware.push(HardwareDecl {
            name: name.into(),
            dev,
            rights,
        });
        self
    }

    /// Finds a provided interface by name.
    pub fn provided(&self, iface: &str) -> Option<&Interface> {
        self.provides.iter().find(|i| i.name == iface)
    }

    /// Finds a used interface by name.
    pub fn used(&self, iface: &str) -> Option<&Interface> {
        self.uses.iter().find(|i| i.name == iface)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procedure_labels_are_method_indices() {
        let p = Procedure::new("ctrl", ["a", "b", "c"]);
        assert_eq!(p.label_of("a"), Some(0));
        assert_eq!(p.label_of("c"), Some(2));
        assert_eq!(p.label_of("zz"), None);
        assert_eq!(p.method_of(1), Some("b"));
        assert_eq!(p.method_of(9), None);
    }

    #[test]
    fn component_builder_accumulates() {
        let p = Procedure::new("x", ["m"]);
        let c = Component::new("t")
            .provides("srv", p.clone())
            .uses("cli", p)
            .hardware("fan", DeviceId::FAN, CapRights::WRITE);
        assert!(c.provided("srv").is_some());
        assert!(c.provided("cli").is_none());
        assert!(c.used("cli").is_some());
        assert_eq!(c.hardware.len(), 1);
    }
}
