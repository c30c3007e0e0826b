//! Fixture: `one-categorical-form` trips on a string payload.

pub enum Column {
    Num(Vec<f64>),
    Cat(Vec<String>),
}
