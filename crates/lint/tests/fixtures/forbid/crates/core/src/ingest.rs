//! Fixture: `one-csv-record-form` trips on a string per cell.

pub fn records() -> Vec<Vec<String>> {
    Vec::new()
}
