//! Per-thread capability spaces.
//!
//! A CSpace is the *only* naming context a thread has: if a capability is
//! not in a thread's CSpace, the corresponding object does not exist for
//! that thread. This is the confinement property the paper's brute-force
//! experiment probes.

use crate::cap::{CPtr, Capability};
use crate::error::Sel4Error;

/// A fixed-size capability space (a flattened, single-level CNode).
///
/// ```
/// use bas_sel4::cap::{Capability, CPtr};
/// use bas_sel4::cspace::CSpace;
/// use bas_sel4::objects::ObjId;
/// use bas_sel4::rights::CapRights;
///
/// let mut cs = CSpace::new(8);
/// let slot = cs.insert(Capability::to_object(ObjId::new(1), CapRights::RW, 0)).unwrap();
/// assert!(cs.lookup(slot).is_ok());
/// assert!(cs.lookup(CPtr::new(7)).is_err(), "empty slot");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CSpace {
    slots: Vec<Option<Capability>>,
}

impl CSpace {
    /// Creates a CSpace with `size` empty slots.
    pub fn new(size: usize) -> Self {
        CSpace {
            slots: vec![None; size],
        }
    }

    /// Number of slots (occupied or not).
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Looks up the capability at `cptr`.
    ///
    /// # Errors
    ///
    /// Returns [`Sel4Error::InvalidCapability`] if the slot is out of range
    /// or empty — the kernel never reveals which.
    pub fn lookup(&self, cptr: CPtr) -> Result<Capability, Sel4Error> {
        self.slots
            .get(cptr.as_usize())
            .copied()
            .flatten()
            .ok_or(Sel4Error::InvalidCapability)
    }

    /// Whether every slot is occupied, so an insert would fail.
    pub fn is_full(&self) -> bool {
        self.slots.iter().all(Option::is_some)
    }

    /// Installs a capability in the first free slot.
    ///
    /// # Errors
    ///
    /// Returns [`Sel4Error::NoFreeSlot`] when the CSpace is full.
    pub fn insert(&mut self, cap: Capability) -> Result<CPtr, Sel4Error> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.is_none())
            .ok_or(Sel4Error::NoFreeSlot)?;
        self.slots[idx] = Some(cap);
        Ok(CPtr::new(idx as u32))
    }

    /// Installs a capability at an explicit slot (bootstrap-time layout).
    ///
    /// # Errors
    ///
    /// Returns [`Sel4Error::InvalidCapability`] if the slot is out of
    /// range, or [`Sel4Error::SlotOccupied`] if already in use.
    pub fn insert_at(&mut self, cptr: CPtr, cap: Capability) -> Result<(), Sel4Error> {
        let slot = self
            .slots
            .get_mut(cptr.as_usize())
            .ok_or(Sel4Error::InvalidCapability)?;
        if slot.is_some() {
            return Err(Sel4Error::SlotOccupied);
        }
        *slot = Some(cap);
        Ok(())
    }

    /// Overwrites the capability at an *occupied* slot (in-place rights
    /// attenuation during churn sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`Sel4Error::InvalidCapability`] if out of range or empty.
    pub fn replace(&mut self, cptr: CPtr, cap: Capability) -> Result<(), Sel4Error> {
        let slot = self
            .slots
            .get_mut(cptr.as_usize())
            .ok_or(Sel4Error::InvalidCapability)?;
        if slot.is_none() {
            return Err(Sel4Error::InvalidCapability);
        }
        *slot = Some(cap);
        Ok(())
    }

    /// Removes and returns the capability at `cptr`.
    ///
    /// # Errors
    ///
    /// Returns [`Sel4Error::InvalidCapability`] if out of range or empty.
    pub fn remove(&mut self, cptr: CPtr) -> Result<Capability, Sel4Error> {
        let slot = self
            .slots
            .get_mut(cptr.as_usize())
            .ok_or(Sel4Error::InvalidCapability)?;
        slot.take().ok_or(Sel4Error::InvalidCapability)
    }

    /// Iterates over `(cptr, capability)` for occupied slots.
    pub fn iter(&self) -> impl Iterator<Item = (CPtr, Capability)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|c| (CPtr::new(i as u32), c)))
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objects::ObjId;
    use crate::rights::CapRights;

    fn cap(obj: u32) -> Capability {
        Capability::to_object(ObjId::new(obj), CapRights::RW, 0)
    }

    #[test]
    fn insert_fills_lowest_free_slot() {
        let mut cs = CSpace::new(4);
        assert_eq!(cs.insert(cap(1)).unwrap(), CPtr::new(0));
        assert_eq!(cs.insert(cap(2)).unwrap(), CPtr::new(1));
        cs.remove(CPtr::new(0)).unwrap();
        assert_eq!(
            cs.insert(cap(3)).unwrap(),
            CPtr::new(0),
            "reuses freed slot"
        );
    }

    #[test]
    fn full_cspace_rejects_insert() {
        let mut cs = CSpace::new(1);
        cs.insert(cap(1)).unwrap();
        assert_eq!(cs.insert(cap(2)), Err(Sel4Error::NoFreeSlot));
    }

    #[test]
    fn out_of_range_and_empty_look_identical() {
        let cs = CSpace::new(2);
        assert_eq!(cs.lookup(CPtr::new(0)), Err(Sel4Error::InvalidCapability));
        assert_eq!(cs.lookup(CPtr::new(99)), Err(Sel4Error::InvalidCapability));
    }

    #[test]
    fn insert_at_respects_occupancy() {
        let mut cs = CSpace::new(3);
        cs.insert_at(CPtr::new(2), cap(1)).unwrap();
        assert_eq!(
            cs.insert_at(CPtr::new(2), cap(2)),
            Err(Sel4Error::SlotOccupied)
        );
        assert_eq!(
            cs.insert_at(CPtr::new(9), cap(2)),
            Err(Sel4Error::InvalidCapability)
        );
        assert_eq!(cs.occupied(), 1);
    }

    #[test]
    fn iter_lists_occupied_in_slot_order() {
        let mut cs = CSpace::new(4);
        cs.insert_at(CPtr::new(3), cap(3)).unwrap();
        cs.insert_at(CPtr::new(1), cap(1)).unwrap();
        let slots: Vec<u32> = cs.iter().map(|(p, _)| p.slot()).collect();
        assert_eq!(slots, vec![1, 3]);
    }
}
