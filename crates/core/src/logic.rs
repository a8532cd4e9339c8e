//! Platform-independent application logic.
//!
//! The same pure role cores run on all three platforms — exactly how the
//! paper ports one scenario across MINIX 3, seL4/CAmkES and Linux — and
//! every platform-neutral decision lives here: the control law and the
//! controller's answers to web requests ([`control::ControlCore`]) and the
//! whole administrator session ([`web::WebClient`]). The processes in
//! [`crate::platform`] run them: one generic process per benign role over
//! a per-platform binding, and one controller per platform.

pub mod control;
pub mod http;
pub mod traffic;
pub mod web;
