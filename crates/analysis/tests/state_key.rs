//! `McState::pack` is injective over the declared field ranges, so the
//! explorer's deduplication on it is exact.

use bas_analysis::mc::state::{ReadingOrigin, WebMsg};
use bas_analysis::mc::McState;
use proptest::prelude::*;

/// Raw field material: the counters and masks, then the small enums and
/// the six booleans as one 6-bit word.
type Raw = ((u8, u8, u8, u8, u8, u8, u8), (u8, u8, u8, u8, u8));

fn arb_raw() -> impl Strategy<Value = Raw> {
    (
        (
            0u8..32,
            0u8..32,
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            any::<u8>(),
            0u8..128,
        ),
        (0u8..5, 0u8..4, 0u8..3, 0u8..3, 0u8..64),
    )
}

fn state(raw: &Raw) -> McState {
    let ((alive, moved, round, hot_unalarmed, forks, budget, flags), (reading, msg, fan, al, b)) =
        *raw;
    let cmd = |c: u8| [None, Some(false), Some(true)][usize::from(c)];
    let bit = |i: u8| b & (1 << i) != 0;
    McState {
        alive,
        moved,
        round,
        temp_hot: bit(0),
        hot_unalarmed,
        fan_dev: bit(1),
        alarm_dev: bit(2),
        reading: [
            None,
            Some((false, ReadingOrigin::Sensor)),
            Some((true, ReadingOrigin::Sensor)),
            Some((false, ReadingOrigin::Web)),
            Some((true, ReadingOrigin::Web)),
        ][usize::from(reading)],
        web_msg: [
            None,
            Some(WebMsg::Junk),
            Some(WebMsg::TamperSetpoint),
            Some(WebMsg::ReplaySetpoint),
        ][usize::from(msg)],
        fan_cmd: cmd(fan),
        alarm_cmd: cmd(al),
        believes_hot: bit(3),
        diverged: bit(4),
        cap_ok: bit(5),
        forks,
        budget,
        flags,
    }
}

/// Takes field `i` of the 12 raw fields from `b` when bit `i` of `mask`
/// is set, else from `a`.
fn splice(a: &Raw, b: &Raw, mask: u16) -> Raw {
    let pick = |i: u32, x: u8, y: u8| if mask & (1 << i) != 0 { y } else { x };
    let ((a0, a1, a2, a3, a4, a5, a6), (a7, a8, a9, a10, a11)) = *a;
    let ((b0, b1, b2, b3, b4, b5, b6), (b7, b8, b9, b10, b11)) = *b;
    (
        (
            pick(0, a0, b0),
            pick(1, a1, b1),
            pick(2, a2, b2),
            pick(3, a3, b3),
            pick(4, a4, b4),
            pick(5, a5, b5),
            pick(6, a6, b6),
        ),
        (
            pick(7, a7, b7),
            pick(8, a8, b8),
            pick(9, a9, b9),
            pick(10, a10, b10),
            pick(11, a11, b11),
        ),
    )
}

proptest! {
    /// Two states pack to the same key exactly when they are equal. Each
    /// case compares the first state with twelve that differ from it in
    /// one raw field only, and with one that takes a random subset of
    /// its fields from the second.
    #[test]
    fn pack_is_injective(a in arb_raw(), b in arb_raw(), mask in 0u16..(1 << 12)) {
        let s = state(&a);
        for m in (0..12).map(|i| 1 << i).chain([mask]) {
            let t = state(&splice(&a, &b, m));
            prop_assert_eq!(s == t, s.pack() == t.pack(), "{:?} vs {:?}", s, t);
        }
    }
}

#[test]
fn initial_state_packs_within_its_fields() {
    let s = McState::initial(6);
    let key = s.pack();
    assert_eq!(key & 0x1f, 0b1111, "alive: the four critical processes");
    assert_eq!((key >> 34) & 0xff, 6, "budget sits at bit 34");
    assert_eq!(key >> 63, 1, "cap_ok is the top bit");
}
