//! Engine-side validity checks.
//!
//! "Protection of the messaging engine from the application can be enforced
//! via appropriate checks in the messaging engine, but can be removed to
//! increase performance of a trusted application." The paper measured the
//! checks at about 2µs per message on the Paragon. The host engine always
//! runs them: a trusting engine would index the buffer array with whatever
//! a corrupted ring slot holds. The checks-off numbers come from the
//! Paragon model (`flipc-paragon`'s `FlipcModelConfig::checks`).
//!
//! Every value the engine reads from application-writable memory — ring
//! slots (buffer indices), queue pointers, header words — is validated here
//! before the engine acts on it. A failed check never stalls the engine: it
//! skips or drops and keeps running (wait-freedom includes being robust to
//! a corrupted communication buffer).

use crate::buffer::BufferState;
use crate::commbuf::CommBuffer;
use crate::endpoint::{EndpointAddress, EndpointIndex, EndpointType, FlipcNodeId};
use crate::error::{FlipcError, Result};
use crate::queue::EngineQueue;

/// Validates a buffer index read from a ring slot, and that the buffer is
/// in the state the engine expects to process (`Queued`).
pub fn validate_queued_buffer(cb: &CommBuffer, buf: u32) -> Result<()> {
    if !cb.layout().buffer_index_ok(buf) {
        return Err(FlipcError::BadBuffer);
    }
    if cb.header(buf).state() != BufferState::Queued {
        return Err(FlipcError::BadBuffer);
    }
    Ok(())
}

/// Validates that a queue's backlog is plausible: a well-behaved
/// application can never have more released-unprocessed buffers than the
/// ring holds. A larger value means the release pointer was corrupted.
pub fn validate_backlog(q: &EngineQueue<'_>) -> Result<()> {
    if q.backlog() > q.capacity() {
        return Err(FlipcError::BadEndpoint);
    }
    Ok(())
}

/// Validates the destination of an arriving message against the local
/// endpoint table: index in range, slot active, generation matches, and the
/// endpoint is of receive type. Returns the validated index.
///
/// `local` is this node's id; a mismatch means the transport misrouted the
/// frame (counted as misaddressed, like a stale endpoint).
pub fn validate_delivery(
    cb: &CommBuffer,
    local: FlipcNodeId,
    dest: EndpointAddress,
) -> Result<EndpointIndex> {
    validate_delivery_at(cb, local, dest, 0)
}

/// [`validate_delivery`] for a communication buffer whose endpoints are
/// published at a nonzero index base — the multiple-communication-buffer
/// configuration (paper Future Work: "support for multiple communication
/// buffers per node ... to support multiple applications that do not trust
/// each other"). The wire address carries the node-global index; records
/// are looked up at `index - index_base`.
pub fn validate_delivery_at(
    cb: &CommBuffer,
    local: FlipcNodeId,
    dest: EndpointAddress,
    index_base: u16,
) -> Result<EndpointIndex> {
    if dest.node() != local {
        return Err(FlipcError::BadEndpoint);
    }
    let Some(local_idx) = dest.index().0.checked_sub(index_base) else {
        return Err(FlipcError::BadEndpoint);
    };
    let idx = EndpointIndex(local_idx);
    let (gen, active) = cb.endpoint_gen_active(idx)?;
    if !active || gen != dest.generation() {
        return Err(FlipcError::BadEndpoint);
    }
    if cb.endpoint_type(idx)? != EndpointType::Receive {
        return Err(FlipcError::WrongEndpointType);
    }
    Ok(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Importance;
    use crate::layout::Geometry;

    fn setup() -> (CommBuffer, EndpointIndex, u16) {
        let cb = CommBuffer::new(Geometry::small()).unwrap();
        let (idx, gen) = cb
            .alloc_endpoint(EndpointType::Receive, Importance::Normal)
            .unwrap();
        (cb, idx, gen)
    }

    fn addr(node: u16, idx: EndpointIndex, gen: u16) -> EndpointAddress {
        EndpointAddress::new(FlipcNodeId(node), idx, gen)
    }

    #[test]
    fn valid_delivery_passes() {
        let (cb, idx, gen) = setup();
        let got = validate_delivery(&cb, FlipcNodeId(0), addr(0, idx, gen)).unwrap();
        assert_eq!(got, idx);
    }

    #[test]
    fn wrong_node_is_rejected() {
        let (cb, idx, gen) = setup();
        assert!(validate_delivery(&cb, FlipcNodeId(1), addr(0, idx, gen)).is_err());
    }

    #[test]
    fn stale_generation_is_rejected() {
        let (cb, idx, gen) = setup();
        assert_eq!(
            validate_delivery(&cb, FlipcNodeId(0), addr(0, idx, gen.wrapping_sub(1))).unwrap_err(),
            FlipcError::BadEndpoint
        );
    }

    #[test]
    fn inactive_endpoint_is_rejected() {
        let (cb, idx, gen) = setup();
        cb.free_endpoint(idx).unwrap();
        assert!(validate_delivery(&cb, FlipcNodeId(0), addr(0, idx, gen)).is_err());
    }

    #[test]
    fn send_endpoint_cannot_receive() {
        let cb = CommBuffer::new(Geometry::small()).unwrap();
        let (idx, gen) = cb
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .unwrap();
        assert_eq!(
            validate_delivery(&cb, FlipcNodeId(0), addr(0, idx, gen)).unwrap_err(),
            FlipcError::WrongEndpointType
        );
    }

    #[test]
    fn out_of_range_index_is_rejected() {
        let (cb, _, _) = setup();
        assert!(validate_delivery(&cb, FlipcNodeId(0), addr(0, EndpointIndex(99), 0)).is_err());
    }

    #[test]
    fn queued_buffer_validation() {
        let (cb, _, _) = setup();
        let t = cb.alloc_buffer().unwrap();
        let idx = t.index();
        // Free state: not processable.
        assert_eq!(
            validate_queued_buffer(&cb, idx).unwrap_err(),
            FlipcError::BadBuffer
        );
        cb.header(idx).set_state(BufferState::Queued);
        assert!(validate_queued_buffer(&cb, idx).is_ok());
        // Out-of-range index from a corrupted ring slot.
        assert_eq!(
            validate_queued_buffer(&cb, 9999).unwrap_err(),
            FlipcError::BadBuffer
        );
    }

    #[test]
    fn corrupted_release_pointer_fails_backlog_check() {
        let (cb, _, _) = setup();
        let (send_ep, _) = cb
            .alloc_endpoint(EndpointType::Send, Importance::Normal)
            .unwrap();
        let q = cb.engine_queue(send_ep).unwrap();
        assert!(validate_backlog(&q).is_ok());
        // Errant application smashes the release pointer.
        let off = cb.layout().endpoint(send_ep.0) + crate::layout::EP_RELEASE;
        cb.raw_word(off)
            .store(0x8000_0000, crate::sync::atomic::Ordering::Relaxed);
        assert_eq!(validate_backlog(&q).unwrap_err(), FlipcError::BadEndpoint);
    }
}
