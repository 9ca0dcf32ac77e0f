//! The immutable side of the frame plane: build a wire payload once,
//! share it by reference all the way to every receiver.
//!
//! [`crate::packet`] is the *builder* side — plain mutable enums
//! ([`HvdbMsg`], [`crate::ChMsg`], [`crate::GeoPacket`]) composed field
//! by field. Once a message is handed to the radio it never changes
//! again, so [`FrameBytes::seal`] freezes it into an `Arc`-backed frame
//! whose clone is a refcount bump: a broadcast reaching 30 neighbours
//! shares one payload instead of deep-copying 30 summary vectors, and a
//! flood relay re-broadcasts the exact frame it received.
//!
//! # Invariants
//!
//! * **Immutability** — the payload behind a sealed frame is never
//!   mutated; anything that must change en route (geo TTL, visited list)
//!   is rebuilt through the builder side and re-sealed.
//! * **Interned header** — the stats class (`&'static str`) and the
//!   modelled wire size are computed once at seal time and cached, so
//!   relays and retries never re-walk the payload: for every frame,
//!   `frame.wire_size() == frame.msg().wire_size()` and (unless sealed
//!   with an explicit accounting override via [`FrameBytes::seal_as`])
//!   `frame.class() == frame.msg().class()`.
//! * **Cheap clone** — `clone()` is `Arc::clone` (a refcount bump).
//! * **Unique unwrap** — [`FrameBytes::into_msg`] moves the payload out
//!   without copying when the frame is uniquely held (always true for
//!   unicast deliveries), and deep-clones only when receivers still
//!   share it.

use crate::packet::HvdbMsg;
use hvdb_sim::{NodeId, ParCtx};
use std::sync::Arc;

/// An immutable, reference-shared wire payload: the message type the
/// engine actually delivers (`ParProtocol::Msg` of [`crate::HvdbCore`]).
#[derive(Debug, Clone)]
pub struct FrameBytes {
    inner: Arc<FrameInner>,
}

#[derive(Debug)]
struct FrameInner {
    /// Interned stats class (defaults to the payload's own class).
    class: &'static str,
    /// Modelled encoded size, computed once at seal time.
    wire: u32,
    /// The sealed payload.
    msg: HvdbMsg,
}

impl FrameBytes {
    /// Seals `msg` into an immutable shared frame, interning its stats
    /// class and wire size.
    pub fn seal(msg: HvdbMsg) -> Self {
        Self::build(msg, None)
    }

    /// Seals `msg` under an explicit accounting class (e.g. a corrective
    /// `stamp-hint` that carries an ordinary summary payload).
    pub fn seal_as(msg: HvdbMsg, class: &'static str) -> Self {
        Self::build(msg, Some(class))
    }

    fn build(msg: HvdbMsg, class: Option<&'static str>) -> Self {
        let class = class.unwrap_or_else(|| msg.class());
        let wire = msg.wire_size() as u32;
        FrameBytes {
            inner: Arc::new(FrameInner { class, wire, msg }),
        }
    }

    /// The sealed payload.
    #[inline]
    pub fn msg(&self) -> &HvdbMsg {
        &self.inner.msg
    }

    /// Interned stats class.
    #[inline]
    pub fn class(&self) -> &'static str {
        self.inner.class
    }

    /// Interned modelled wire size (bytes).
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.inner.wire as usize
    }

    /// Takes the payload out of the frame: a move when uniquely held, a
    /// deep clone only when other receivers still share it. Unicast
    /// handlers (geo relays, handovers) use this to keep their
    /// modify-and-forward paths copy-free.
    pub fn into_msg(self) -> HvdbMsg {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.msg,
            Err(shared) => shared.msg.clone(),
        }
    }
}

/// Frame-aware sending sugar over the engine context: every method reads
/// the interned class and wire size off the sealed frame, so call sites
/// cannot drift out of sync with the payload they transmit. There is one
/// unicast and one broadcast, as in the engine.
pub trait FrameCtx {
    /// Unicast a sealed frame with MAC retries ([`ParCtx::send_reliable`]
    /// semantics).
    fn send_frame_reliable(&mut self, from: NodeId, to: NodeId, frame: FrameBytes) -> bool;
    /// Broadcast a sealed frame ([`ParCtx::broadcast`] semantics); the
    /// payload is shared, not copied, across receivers.
    fn broadcast_frame(&mut self, from: NodeId, frame: FrameBytes) -> usize;
}

impl FrameCtx for ParCtx<'_, FrameBytes> {
    fn send_frame_reliable(&mut self, from: NodeId, to: NodeId, frame: FrameBytes) -> bool {
        self.send_reliable(from, to, frame.class(), frame.wire_size(), frame)
    }

    fn broadcast_frame(&mut self, from: NodeId, frame: FrameBytes) -> usize {
        self.broadcast(from, frame.class(), frame.wire_size(), frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::GroupId;

    fn sample() -> HvdbMsg {
        HvdbMsg::LocalDeliver {
            data_id: 7,
            group: GroupId(1),
            size: 512,
            hops: 0,
        }
    }

    #[test]
    fn seal_interns_class_and_wire_size() {
        let msg = sample();
        let class = msg.class();
        let wire = msg.wire_size();
        let f = FrameBytes::seal(msg);
        assert_eq!(f.class(), class);
        assert_eq!(f.wire_size(), wire);
        assert_eq!(f.msg().wire_size(), wire);
    }

    #[test]
    fn seal_as_overrides_accounting_class_only() {
        let f = FrameBytes::seal_as(sample(), "stamp-hint");
        assert_eq!(f.class(), "stamp-hint");
        assert_eq!(f.msg().class(), "local-deliver");
        assert_eq!(f.wire_size(), f.msg().wire_size());
    }

    #[test]
    fn clone_is_shared_and_into_msg_moves_when_unique() {
        let f = FrameBytes::seal(sample());
        assert_eq!(Arc::strong_count(&f.inner), 1);
        let g = f.clone();
        assert_eq!(Arc::strong_count(&f.inner), 2);
        // Shared contents are literally the same allocation.
        assert!(std::ptr::eq(f.msg(), g.msg()));
        drop(g);
        assert_eq!(Arc::strong_count(&f.inner), 1);
        let HvdbMsg::LocalDeliver { data_id, .. } = f.into_msg() else {
            panic!("payload changed shape");
        };
        assert_eq!(data_id, 7);
    }

    #[test]
    fn into_msg_on_shared_frame_deep_copies() {
        let f = FrameBytes::seal(sample());
        let g = f.clone();
        let taken = f.into_msg(); // g still holds the payload
        assert_eq!(taken.wire_size(), g.wire_size());
    }
}
