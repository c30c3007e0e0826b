//! Fixture: `one-code-width` trips on a per-shard candidate loop.

pub fn widths(cfg: &Config) -> usize {
    cfg.code_bits_candidates.len()
}
