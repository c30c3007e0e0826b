//! Column type metadata.
//!
//! DeepSqueeze takes "a tabular dataset consisting of any combination of
//! categorical and numerical columns, as well as metadata specifying the
//! column types" (§3.1) — this module is that metadata.

use crate::{Result, TableError};

/// The two column kinds the paper's pipeline distinguishes (§4).
///
/// Integers and floats both map to [`ColumnType::Numeric`]; the
/// preprocessing stage handles scale and precision, so a separate integer
/// kind would change nothing downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Distinct, unordered values represented as strings (§4.1).
    Categorical,
    /// Ordered numeric values, integer or floating-point (§4.2).
    Numeric,
}

impl std::fmt::Display for ColumnType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnType::Categorical => write!(f, "categorical"),
            ColumnType::Numeric => write!(f, "numeric"),
        }
    }
}

/// A named, typed column slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column kind.
    pub ty: ColumnType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }

    /// Shorthand for a categorical field.
    pub fn categorical(name: impl Into<String>) -> Self {
        Field::new(name, ColumnType::Categorical)
    }

    /// Shorthand for a numeric field.
    pub fn numeric(name: impl Into<String>) -> Self {
        Field::new(name, ColumnType::Numeric)
    }
}

/// An ordered list of fields describing a table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(fields: Vec<Field>) -> Result<Self> {
        let mut seen = std::collections::HashSet::new();
        for f in &fields {
            if !seen.insert(f.name.as_str()) {
                return Err(TableError::InvalidParameter("duplicate column name"));
            }
        }
        Ok(Schema { fields })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at `idx`.
    pub fn field(&self, idx: usize) -> Option<&Field> {
        self.fields.get(idx)
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_rejects_duplicate_names() {
        let err = Schema::new(vec![Field::numeric("a"), Field::categorical("a")]);
        assert!(err.is_err());
    }

    #[test]
    fn index_lookup() {
        let s = Schema::new(vec![
            Field::numeric("x"),
            Field::categorical("c"),
            Field::numeric("y"),
        ])
        .unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("c"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.field(1).unwrap().ty, ColumnType::Categorical);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ColumnType::Numeric.to_string(), "numeric");
        assert_eq!(ColumnType::Categorical.to_string(), "categorical");
    }
}
