//! The BAS wire protocol shared by all three platform implementations.
//!
//! Message-type numbers double as the ACM's authorization unit on MINIX
//! ("we use the message type field to represent different remote procedure
//! calls"), as RPC labels on seL4/CAmkES, and as payload tags on Linux.
//! Access-control identities follow the paper's §IV numbering
//! ("TempSensorProcess.imp is 100, and TempControlProcess.imp is 101
//! etc.").

use bas_acm::AcId;
use bas_minix::message::Payload;
use bas_sim::inline::{MsgBytes, MsgWords};

/// `ac_id` of the temperature sensor process.
pub const AC_SENSOR: AcId = AcId::new(100);
/// `ac_id` of the temperature control process.
pub const AC_CONTROL: AcId = AcId::new(101);
/// `ac_id` of the heater (fan) actuator process.
pub const AC_HEATER: AcId = AcId::new(102);
/// `ac_id` of the alarm actuator process.
pub const AC_ALARM: AcId = AcId::new(103);
/// `ac_id` of the web interface process (the untrusted one).
pub const AC_WEB: AcId = AcId::new(104);
/// `ac_id` of the scenario loader process.
pub const AC_SCENARIO: AcId = AcId::new(105);

/// Acknowledgment / reply (type 0, per the paper's convention).
pub const MT_ACK: u32 = 0;
/// Sensor reading: sensor → control.
pub const MT_SENSOR_READING: u32 = 1;
/// Fan command: control → heater actuator.
pub const MT_FAN_CMD: u32 = 2;
/// Alarm command: control → alarm actuator.
pub const MT_ALARM_CMD: u32 = 3;
/// Setpoint update: web → control.
pub const MT_SETPOINT: u32 = 4;
/// Status query: web → control.
pub const MT_STATUS_QUERY: u32 = 5;

/// Process names, used for name-service lookups and trace matching.
pub mod names {
    /// The temperature sensor driver.
    pub const SENSOR: &str = "temp_sensor";
    /// The temperature control process.
    pub const CONTROL: &str = "temp_control";
    /// The heater/fan actuator driver.
    pub const HEATER: &str = "heater_actuator";
    /// The alarm actuator driver.
    pub const ALARM: &str = "alarm_actuator";
    /// The web interface.
    pub const WEB: &str = "web_interface";
    /// The scenario loader.
    pub const SCENARIO: &str = "scenario";
}

/// A decoded protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasMsg {
    /// Periodic reading from the sensor driver.
    SensorReading {
        /// Temperature in milli-°C.
        milli_c: i32,
        /// Monotonic sequence number.
        seq: u32,
    },
    /// Command to the fan actuator.
    FanCmd {
        /// Desired state.
        on: bool,
    },
    /// Command to the alarm actuator.
    AlarmCmd {
        /// Desired state.
        on: bool,
    },
    /// Administrator setpoint change.
    SetpointUpdate {
        /// New setpoint in milli-°C.
        milli_c: i32,
    },
    /// Status request from the web interface.
    StatusQuery,
    /// Plain acknowledgment with a result code (0 = ok).
    Ack {
        /// 0 for success, protocol-specific error code otherwise.
        code: u32,
    },
    /// Status report (sent as an ack-class reply).
    Status {
        /// Last sensor reading, milli-°C.
        temp_milli_c: i32,
        /// Current setpoint, milli-°C.
        setpoint_milli_c: i32,
        /// Fan state believed by the controller.
        fan_on: bool,
        /// Alarm state believed by the controller.
        alarm_on: bool,
    },
}

/// Decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtoError {
    /// The message type / tag that failed to decode.
    pub tag: u32,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed bas message with tag {}", self.tag)
    }
}

impl std::error::Error for ProtoError {}

/// Length of a message's Linux mq encoding ([`BasMsg::to_bytes`]): the
/// 4-byte type tag and the first 20 payload bytes, which hold every
/// field of every message.
pub const MQ_WIRE_LEN: usize = 24;

// Ack-class subtags (within message type 0).
const SUB_ACK: u32 = 0;
const SUB_STATUS: u32 = 2;

impl BasMsg {
    /// Encodes for MINIX: `(message type, payload)`.
    pub fn to_minix(self) -> (u32, Payload) {
        let mut p = Payload::zeroed();
        match self {
            BasMsg::SensorReading { milli_c, seq } => {
                p.write_i32(0, milli_c);
                p.write_u32(4, seq);
                (MT_SENSOR_READING, p)
            }
            BasMsg::FanCmd { on } => {
                p.write_u32(0, u32::from(on));
                (MT_FAN_CMD, p)
            }
            BasMsg::AlarmCmd { on } => {
                p.write_u32(0, u32::from(on));
                (MT_ALARM_CMD, p)
            }
            BasMsg::SetpointUpdate { milli_c } => {
                p.write_i32(0, milli_c);
                (MT_SETPOINT, p)
            }
            BasMsg::StatusQuery => (MT_STATUS_QUERY, p),
            BasMsg::Ack { code } => {
                p.write_u32(0, SUB_ACK);
                p.write_u32(4, code);
                (MT_ACK, p)
            }
            BasMsg::Status {
                temp_milli_c,
                setpoint_milli_c,
                fan_on,
                alarm_on,
            } => {
                p.write_u32(0, SUB_STATUS);
                p.write_i32(4, temp_milli_c);
                p.write_i32(8, setpoint_milli_c);
                p.write_u32(12, u32::from(fan_on));
                p.write_u32(16, u32::from(alarm_on));
                (MT_ACK, p)
            }
        }
    }

    /// Decodes from MINIX message type + payload.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] for unknown types or subtags.
    pub fn from_minix(mtype: u32, p: &Payload) -> Result<BasMsg, ProtoError> {
        Ok(match mtype {
            MT_SENSOR_READING => BasMsg::SensorReading {
                milli_c: p.read_i32(0),
                seq: p.read_u32(4),
            },
            MT_FAN_CMD => BasMsg::FanCmd {
                on: p.read_u32(0) != 0,
            },
            MT_ALARM_CMD => BasMsg::AlarmCmd {
                on: p.read_u32(0) != 0,
            },
            MT_SETPOINT => BasMsg::SetpointUpdate {
                milli_c: p.read_i32(0),
            },
            MT_STATUS_QUERY => BasMsg::StatusQuery,
            MT_ACK => match p.read_u32(0) {
                SUB_ACK => BasMsg::Ack {
                    code: p.read_u32(4),
                },
                SUB_STATUS => BasMsg::Status {
                    temp_milli_c: p.read_i32(4),
                    setpoint_milli_c: p.read_i32(8),
                    fan_on: p.read_u32(12) != 0,
                    alarm_on: p.read_u32(16) != 0,
                },
                other => return Err(ProtoError { tag: other }),
            },
            other => return Err(ProtoError { tag: other }),
        })
    }

    /// Encodes for Linux message queues: a tagged byte string of
    /// [`MQ_WIRE_LEN`] bytes, held inline. Note the deliberate absence of
    /// any sender field — mq messages have no identity, which is the
    /// spoofing attack's entry point.
    pub fn to_bytes(self) -> MsgBytes {
        let (tag, payload) = self.to_minix();
        let mut out = [0u8; MQ_WIRE_LEN];
        out[..4].copy_from_slice(&tag.to_le_bytes());
        out[4..].copy_from_slice(&payload.as_bytes()[..MQ_WIRE_LEN - 4]);
        MsgBytes::from(out)
    }

    /// Decodes from Linux mq bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] for truncated or unknown messages.
    pub fn from_bytes(bytes: &[u8]) -> Result<BasMsg, ProtoError> {
        if bytes.len() < 4 {
            return Err(ProtoError { tag: u32::MAX });
        }
        let tag = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let body = &bytes[4..];
        let n = body.len().min(bas_minix::message::PAYLOAD_LEN);
        let p = Payload::from_bytes(&body[..n]);
        BasMsg::from_minix(tag, &p)
    }
}

/// Encodes a signed value as one seL4 message word (two's complement in
/// the low 32 bits).
pub fn encode_i32(v: i32) -> u64 {
    u64::from(v as u32)
}

/// Decodes a word written by [`encode_i32`].
pub fn decode_i32(w: u64) -> i32 {
    w as u32 as i32
}

impl BasMsg {
    /// Encodes a controller reply for seL4 as `(reply label, words)`.
    ///
    /// An `Ack` carries its code as the label, so callers (and the attack
    /// evidence classifier) see validation failures at the RPC layer, and
    /// `[code, setpoint]` as words, `setpoint_milli_c` being the setpoint
    /// in force after the request. A `Status` is label 0 with its four
    /// fields. Other messages are not controller replies: `None`.
    pub fn to_sel4_reply(self, setpoint_milli_c: i32) -> Option<(u64, MsgWords)> {
        Some(match self {
            BasMsg::Ack { code } => {
                let code = u64::from(code);
                (code, MsgWords::from([code, encode_i32(setpoint_milli_c)]))
            }
            BasMsg::Status {
                temp_milli_c,
                setpoint_milli_c,
                fan_on,
                alarm_on,
            } => (
                0,
                MsgWords::from([
                    encode_i32(temp_milli_c),
                    encode_i32(setpoint_milli_c),
                    u64::from(fan_on),
                    u64::from(alarm_on),
                ]),
            ),
            _ => return None,
        })
    }

    /// Decodes the seL4 reply words to `request` (a setpoint update or a
    /// status query); `None` when the words are too short for the answer
    /// that request expects.
    pub fn from_sel4_reply(request: BasMsg, words: &[u64]) -> Option<BasMsg> {
        match (request, words) {
            (BasMsg::SetpointUpdate { .. }, [code, ..]) => Some(BasMsg::Ack { code: *code as u32 }),
            (BasMsg::StatusQuery, [temp, setpoint, fan, alarm, ..]) => Some(BasMsg::Status {
                temp_milli_c: decode_i32(*temp),
                setpoint_milli_c: decode_i32(*setpoint),
                fan_on: *fan != 0,
                alarm_on: *alarm != 0,
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [BasMsg; 7] = [
        BasMsg::SensorReading {
            milli_c: -12_345,
            seq: 42,
        },
        BasMsg::FanCmd { on: true },
        BasMsg::AlarmCmd { on: false },
        BasMsg::SetpointUpdate { milli_c: 23_500 },
        BasMsg::StatusQuery,
        BasMsg::Ack { code: 7 },
        BasMsg::Status {
            temp_milli_c: 21_900,
            setpoint_milli_c: 22_000,
            fan_on: true,
            alarm_on: false,
        },
    ];

    #[test]
    fn minix_roundtrip_all_variants() {
        for msg in ALL {
            let (mtype, payload) = msg.to_minix();
            assert_eq!(BasMsg::from_minix(mtype, &payload), Ok(msg), "{msg:?}");
        }
    }

    #[test]
    fn bytes_roundtrip_all_variants() {
        for msg in ALL {
            let bytes = msg.to_bytes();
            assert!(!bytes.spilled(), "{msg:?} left the inline buffer");
            assert_eq!(BasMsg::from_bytes(&bytes), Ok(msg), "{msg:?}");
        }
    }

    #[test]
    fn sel4_replies_roundtrip() {
        let (label, words) = BasMsg::Ack { code: 1 }.to_sel4_reply(-4_000).unwrap();
        assert_eq!(
            (label, words.as_slice()),
            (1, [1, encode_i32(-4_000)].as_slice())
        );
        let request = BasMsg::SetpointUpdate { milli_c: 95_000 };
        assert_eq!(
            BasMsg::from_sel4_reply(request, &words),
            Some(BasMsg::Ack { code: 1 })
        );
        let status = ALL[6];
        let (label, words) = status.to_sel4_reply(0).unwrap();
        assert_eq!((label, words.len()), (0, 4));
        assert!(!words.spilled(), "the longest reply stays inline");
        assert_eq!(
            BasMsg::from_sel4_reply(BasMsg::StatusQuery, &words),
            Some(status)
        );
        assert_eq!(
            BasMsg::from_sel4_reply(BasMsg::StatusQuery, &words[..2]),
            None
        );
        assert_eq!(BasMsg::from_sel4_reply(request, &[]), None);
        assert_eq!(BasMsg::StatusQuery.to_sel4_reply(0), None);
    }

    #[test]
    fn unknown_type_rejected() {
        assert!(BasMsg::from_minix(99, &Payload::zeroed()).is_err());
        assert!(BasMsg::from_bytes(&[99, 0, 0, 0]).is_err());
        assert!(BasMsg::from_bytes(&[1]).is_err(), "truncated");
    }

    #[test]
    fn ack_and_status_share_type_zero() {
        let (t1, _) = BasMsg::Ack { code: 0 }.to_minix();
        let (t2, _) = BasMsg::Status {
            temp_milli_c: 0,
            setpoint_milli_c: 0,
            fan_on: false,
            alarm_on: false,
        }
        .to_minix();
        assert_eq!(t1, MT_ACK);
        assert_eq!(t2, MT_ACK);
    }

    #[test]
    fn ac_ids_match_paper_numbering() {
        assert_eq!(AC_SENSOR.as_u32(), 100);
        assert_eq!(AC_CONTROL.as_u32(), 101);
        assert_eq!(AC_WEB.as_u32(), 104);
    }
}
