//! Integration test crate for the Cocco workspace (tests live in `tests/tests/`).

/// The engine thread counts the thread-parity, fault-matrix, resume and
/// work-pin tests loop over in one process. 3 is the dispatching thread
/// plus two pool helpers, the smallest count whose helpers share the
/// batch receiver.
pub const ENGINE_THREADS: [u32; 4] = [1, 2, 3, 8];
