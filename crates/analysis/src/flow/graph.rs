//! Capability derivation trees.
//!
//! Each backend's policy artifact records not only *who holds what* but
//! *where each capability came from*: seL4 caps are minted from an
//! original object capability, MINIX ACM rows can be delegated onward
//! under a quota, hardened-Linux queue access is inherited from the
//! owner's ACL through group membership. The [`CapGraph`] captures that
//! provenance as a forest: every capability is either a *root*
//! (bootstrap authority) or *derived* from exactly one parent by a
//! grant or attenuate edge, and may additionally be revoked or carry an
//! expiry. The flow analysis ([`crate::flow::closure`]) folds the
//! permission lattice over these edges.

use std::fmt;

use super::lattice::Perms;
use crate::ir::ObjectId;

/// Index of a capability node in its [`CapGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CapId(pub u32);

impl fmt::Display for CapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cap#{}", self.0)
    }
}

/// The kernel-object type behind a capability, as two views: what the
/// kernel's object table *declares*, and what the holder's *handle*
/// asserts. The masquerading detector flags any disagreement (the
/// ThreadX kernel-object-masquerading shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjType {
    /// An IPC endpoint / process mailbox.
    Endpoint,
    /// A POSIX message queue.
    Queue,
    /// A device register frame.
    DeviceFrame,
    /// A thread control block.
    Tcb,
    /// The process-management authority.
    ProcessSlot,
    /// Untyped memory (retype/fork source).
    Untyped,
}

impl ObjType {
    /// The declared type implied by an IR object reference.
    pub fn of(object: &ObjectId) -> ObjType {
        match object {
            ObjectId::Process(_) => ObjType::Endpoint,
            ObjectId::Queue(_) => ObjType::Queue,
            ObjectId::Device(_) => ObjType::DeviceFrame,
            ObjectId::ProcessManager => ObjType::ProcessSlot,
        }
    }
}

impl fmt::Display for ObjType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjType::Endpoint => "endpoint",
            ObjType::Queue => "queue",
            ObjType::DeviceFrame => "device-frame",
            ObjType::Tcb => "tcb",
            ObjType::ProcessSlot => "process-slot",
            ObjType::Untyped => "untyped",
        };
        f.write_str(s)
    }
}

/// How a capability came into existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DerivationKind {
    /// Bootstrap authority; no parent.
    Root,
    /// Copied to another holder (rights preserved or shrunk).
    Grant,
    /// Derived with explicitly reduced rights.
    Attenuate,
}

impl fmt::Display for DerivationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DerivationKind::Root => "root",
            DerivationKind::Grant => "grant",
            DerivationKind::Attenuate => "attenuate",
        };
        f.write_str(s)
    }
}

/// One capability: holder, object, both type views, stored rights and
/// provenance. `rights` is what the kernel's slot *records* — the flow
/// analysis separately computes what the chain actually *justifies*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapNode {
    /// The subject holding the capability.
    pub holder: String,
    /// The kernel object it refers to.
    pub object: ObjectId,
    /// The object type per the kernel's object table.
    pub declared: ObjType,
    /// The object type the holder's handle asserts.
    pub handle: ObjType,
    /// Stored (slot) rights.
    pub rights: Perms,
    /// The source capability, if derived.
    pub parent: Option<CapId>,
    /// The edge kind that produced this capability.
    pub via: DerivationKind,
    /// True once this specific node has been revoked.
    pub revoked: bool,
    /// Logical expiry instant, if the grant is time-bounded.
    pub expires_at: Option<u32>,
}

/// The derivation forest of one policy, plus the logical clock expiries
/// are judged against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapGraph {
    /// All capability nodes; `CapId` indexes this vector.
    pub nodes: Vec<CapNode>,
    /// The logical instant "now" for expiry checks.
    pub clock: u32,
}

impl CapGraph {
    /// True when no capabilities are recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of capability nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this graph.
    pub fn node(&self, id: CapId) -> &CapNode {
        &self.nodes[id.0 as usize]
    }

    fn push(&mut self, node: CapNode) -> CapId {
        let id = CapId(u32::try_from(self.nodes.len()).expect("capability graph fits in u32"));
        self.nodes.push(node);
        id
    }

    /// Adds a bootstrap capability; declared and handle types agree.
    pub fn root(&mut self, holder: &str, object: ObjectId, rights: Perms) -> CapId {
        let t = ObjType::of(&object);
        self.root_typed(holder, object, t, t, rights)
    }

    /// Adds a bootstrap capability with explicit type views (the
    /// masquerade seeding path sets `handle != declared`).
    pub fn root_typed(
        &mut self,
        holder: &str,
        object: ObjectId,
        declared: ObjType,
        handle: ObjType,
        rights: Perms,
    ) -> CapId {
        self.push(CapNode {
            holder: holder.to_string(),
            object,
            declared,
            handle,
            rights,
            parent: None,
            via: DerivationKind::Root,
            revoked: false,
            expires_at: None,
        })
    }

    /// Derives a capability the way a well-behaved kernel does: the
    /// child's stored rights are clamped to the parent's stored rights.
    pub fn derive(
        &mut self,
        parent: CapId,
        holder: &str,
        via: DerivationKind,
        rights: Perms,
    ) -> CapId {
        let p = self.node(parent).clone();
        self.push(CapNode {
            holder: holder.to_string(),
            object: p.object,
            declared: p.declared,
            handle: p.handle,
            rights: rights.meet(p.rights),
            parent: Some(parent),
            via,
            revoked: false,
            expires_at: None,
        })
    }

    /// Derives a capability *without* clamping — models a buggy or
    /// hostile mint whose stored rights may exceed the source's.
    pub fn derive_raw(
        &mut self,
        parent: CapId,
        holder: &str,
        via: DerivationKind,
        rights: Perms,
    ) -> CapId {
        let p = self.node(parent).clone();
        self.push(CapNode {
            holder: holder.to_string(),
            object: p.object,
            declared: p.declared,
            handle: p.handle,
            rights,
            parent: Some(parent),
            via,
            revoked: false,
            expires_at: None,
        })
    }

    /// Marks one node revoked *without* touching its descendants — the
    /// incomplete-revocation bug the flow analysis must catch.
    pub fn revoke(&mut self, id: CapId) {
        self.nodes[id.0 as usize].revoked = true;
    }

    /// Revokes a node and its entire derived subtree (the correct
    /// kernel semantics).
    pub fn revoke_recursive(&mut self, id: CapId) {
        self.revoke(id);
        let kids: Vec<CapId> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].parent == Some(id))
            .map(|i| CapId(i as u32))
            .collect();
        for k in kids {
            self.revoke_recursive(k);
        }
    }

    /// Sets a node's expiry instant.
    pub fn expire_at(&mut self, id: CapId, at: u32) {
        self.nodes[id.0 as usize].expires_at = Some(at);
    }

    /// Node-local usability: what a kernel consulting only the slot
    /// sees — not revoked here, not expired here.
    pub fn stored_usable(&self, id: CapId) -> bool {
        let n = self.node(id);
        !n.revoked && n.expires_at.is_none_or(|e| e > self.clock)
    }

    /// All capabilities held by `holder`, in id order.
    pub fn held_by<'a>(&'a self, holder: &'a str) -> impl Iterator<Item = (CapId, &'a CapNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.holder == holder)
            .map(|(i, n)| (CapId(i as u32), n))
    }

    /// Child adjacency (index-aligned with `nodes`).
    pub fn children(&self) -> Vec<Vec<CapId>> {
        let mut kids: Vec<Vec<CapId>> = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                kids[p.0 as usize].push(CapId(i as u32));
            }
        }
        kids
    }

    /// The derivation chain root → … → `id`.
    pub fn chain(&self, id: CapId) -> Vec<CapId> {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(p) = self.node(cur).parent {
            // Defensive cycle guard: a malformed parent pointer must
            // not hang the analysis.
            if chain.contains(&p) {
                break;
            }
            chain.push(p);
            cur = p;
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::lattice::op;
    use bas_sim::device::DeviceId;

    #[test]
    fn derive_clamps_raw_does_not() {
        let mut g = CapGraph::default();
        let r = g.root(
            "a",
            ObjectId::Device(DeviceId::FAN),
            Perms::of(op::DEV_READ),
        );
        let c = g.derive(r, "b", DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        assert_eq!(g.node(c).rights, Perms::NONE, "clamped to the parent");
        let d = g.derive_raw(r, "b", DerivationKind::Grant, Perms::of(op::DEV_WRITE));
        assert_eq!(g.node(d).rights, Perms::of(op::DEV_WRITE));
    }

    #[test]
    fn recursive_revoke_covers_the_subtree() {
        let mut g = CapGraph::default();
        let r = g.root("a", ObjectId::Process("x".into()), Perms::of(op::SEND));
        let c1 = g.derive(r, "b", DerivationKind::Grant, Perms::of(op::SEND));
        let c2 = g.derive(c1, "c", DerivationKind::Grant, Perms::of(op::SEND));
        g.revoke_recursive(r);
        assert!(g.node(r).revoked && g.node(c1).revoked && g.node(c2).revoked);
    }

    #[test]
    fn chain_walks_to_the_root() {
        let mut g = CapGraph::default();
        let r = g.root("a", ObjectId::Process("x".into()), Perms::of(op::SEND));
        let c1 = g.derive(r, "b", DerivationKind::Grant, Perms::of(op::SEND));
        let c2 = g.derive(c1, "c", DerivationKind::Attenuate, Perms::of(op::SEND));
        assert_eq!(g.chain(c2), vec![r, c1, c2]);
        assert_eq!(g.chain(r), vec![r]);
    }

    #[test]
    fn stored_usable_is_node_local() {
        let mut g = CapGraph::default();
        let r = g.root("a", ObjectId::Process("x".into()), Perms::of(op::SEND));
        let c = g.derive(r, "b", DerivationKind::Grant, Perms::of(op::SEND));
        g.revoke(r);
        assert!(!g.stored_usable(r));
        assert!(g.stored_usable(c), "the leak the closure must catch");
        g.expire_at(c, 3);
        g.clock = 3;
        assert!(!g.stored_usable(c), "expiry is inclusive at the instant");
    }
}
