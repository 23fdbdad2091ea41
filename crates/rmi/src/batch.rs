//! Batched wire frames for switchless crossings.
//!
//! A switchless worker that drains several queued requests in one
//! wakeup moves them across the boundary as one *batch frame* instead
//! of one message per request: a fixed frame header, then each
//! payload length-prefixed. Framing `k` messages together amortises
//! the per-message boundary bookkeeping — the cost model charges the
//! boundary copy once per frame, so a drained batch pays one header
//! instead of `k`.
//!
//! The requests already sit in memory the worker shares with the
//! caller, so no frame is ever materialised: the engine charges the
//! boundary copy on [`frame_len`] of this layout.
//!
//! ```text
//! magic  (2 bytes)  0x4D 0x42          "MB"
//! count  (4 bytes)  u32 little-endian  number of payloads
//! k × [ len (4 bytes, u32 LE) | payload bytes ]
//! ```
//!
//! # Example
//!
//! ```
//! use rmi::batch;
//!
//! assert_eq!(batch::frame_len(&[5, 6]), batch::HEADER_LEN + 2 * batch::PER_PAYLOAD_LEN + 11);
//! ```

/// Fixed overhead of one frame: magic plus the payload count.
pub const HEADER_LEN: usize = 6;

/// Per-payload overhead inside a frame (the length prefix).
pub const PER_PAYLOAD_LEN: usize = 4;

/// Total wire bytes of a frame holding payloads of the given lengths.
/// This is what the switchless engine charges boundary-copy costs on.
pub fn frame_len(payload_lens: &[usize]) -> usize {
    HEADER_LEN + payload_lens.iter().map(|l| PER_PAYLOAD_LEN + l).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_amortises_headers() {
        // k messages in one frame must cost less wire than k frames.
        let lens = [64usize, 64, 64, 64];
        let batched = frame_len(&lens);
        let separate: usize = lens.iter().map(|&l| frame_len(&[l])).sum();
        assert!(batched < separate, "batched {batched} vs separate {separate}");
        assert_eq!(frame_len(&[]), HEADER_LEN);
    }
}
