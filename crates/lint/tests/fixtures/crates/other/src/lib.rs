//! Fixture: wallclock and unsafe-contract apply outside decode paths,
//! while the decode-scoped rules do not.

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn peek(p: *const u8) -> u8 {
    // SAFETY: caller guarantees p is valid for reads.
    unsafe { *p }
}

pub fn peek_bad(p: *const u8) -> u8 {
    unsafe { *p }
}

pub fn unwrap_outside_decode_paths() -> u8 {
    Some(1u8).unwrap()
}

pub fn worker_name() -> Option<String> {
    std::thread::current().name().map(str::to_owned)
}
