//! Fixture: an indented `#[cfg(test)]` fn inside an `impl` exempts that fn
//! only; the non-test fn after it is still checked.

pub struct Book {
    lens: Vec<u8>,
}

impl Book {
    #[cfg(test)]
    pub fn first(&self) -> u8 {
        *self.lens.first().unwrap()
    }

    pub fn last(&self) -> u8 {
        *self.lens.last().unwrap()
    }
}
