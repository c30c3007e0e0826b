//! Fixture: `one-adaptive-range-path` trips on a per-symbol coder call.

pub fn put(model: &mut Model, enc: &mut Enc, symbol: u32) -> Option<()> {
    model.encode(&mut *enc, symbol)
}
