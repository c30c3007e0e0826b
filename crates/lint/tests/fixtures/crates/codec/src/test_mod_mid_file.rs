//! Fixture: a `#[cfg(test)]` module in the middle of a file exempts that
//! module only; the code after it is still checked.

pub fn ok(buf: &[u8]) -> Option<u8> {
    buf.first().copied()
}

#[cfg(test)]
mod reference {
    pub fn first(buf: &[u8]) -> u8 {
        *buf.first().unwrap()
    }
}

pub fn after(buf: &[u8]) -> u8 {
    *buf.first().expect("a byte")
}
