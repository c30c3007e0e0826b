//! lock-across-pool fixtures: a lock guard live across a fan-out (TP) or
//! dropped first (TN), then the block, `let _`, I/O and helper shapes.

use std::sync::Mutex;

pub fn fanout_holding_guard(m: &Mutex<u32>, n: usize) {
    let g = m.lock();
    ds_exec::parallel_for(n, |_i| {});
    drop(g);
}

pub fn fanout_after_drop(m: &Mutex<u32>, n: usize) {
    let g = m.lock();
    drop(g);
    ds_exec::parallel_for(n, |_i| {});
}

pub fn guard_scoped_by_block(m: &Mutex<u32>, n: usize) {
    {
        let g = m.lock().unwrap();
        let _ = *g;
    }
    ds_exec::parallel_for(n, |_i| {});
}

pub fn discarded_guard(m: &Mutex<u32>, n: usize) {
    let _ = m.lock();
    ds_exec::parallel_for(n, |_i| {});
}

pub fn write_under_guard(m: &Mutex<Vec<u8>>, out: &mut impl std::io::Write) {
    let g = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    out.write_all(&g).ok();
}

pub fn sweep_under_helper_guard(c: &Cache, n: usize) {
    let mut g = c.cache_lock();
    ds_core::reader::sweep(n, |_i| Ok(()), |_, ()| Ok(()));
    g.clear();
}
