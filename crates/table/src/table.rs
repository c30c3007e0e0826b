//! The [`Table`] type: a schema plus equal-length columns.

use crate::{CatColumn, Column, ColumnType, Field, Result, Schema, TableError};

/// An immutable columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    nrows: usize,
}

impl Table {
    /// Builds a table, validating schema arity, column types, and lengths.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.len() != columns.len() {
            return Err(TableError::SchemaMismatch);
        }
        for (f, c) in schema.fields().iter().zip(&columns) {
            if f.ty != c.ty() {
                return Err(TableError::SchemaMismatch);
            }
        }
        let nrows = columns.first().map(Column::len).unwrap_or(0);
        for c in &columns {
            if c.len() != nrows {
                return Err(TableError::RaggedColumns {
                    expected: nrows,
                    found: c.len(),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            nrows,
        })
    }

    /// A zero-row table under `schema` — the shape streaming sources hand
    /// out when the input has no data rows.
    pub fn empty(schema: Schema) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| match f.ty {
                ColumnType::Categorical => Column::Cat(Default::default()),
                ColumnType::Numeric => Column::Num(Vec::new()),
            })
            .collect();
        Table {
            schema,
            columns,
            nrows: 0,
        }
    }

    /// Builds a table from `(name, column)` pairs, inferring the schema.
    pub fn from_columns(named: Vec<(String, Column)>) -> Result<Self> {
        let fields = named
            .iter()
            .map(|(name, col)| Field::new(name.clone(), col.ty()))
            .collect();
        let schema = Schema::new(fields)?;
        let columns = named.into_iter().map(|(_, c)| c).collect();
        Table::new(schema, columns)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.columns.len()
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at index `idx`.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_owned()))?;
        Ok(&self.columns[idx])
    }

    /// Raw size in bytes: the length of the table's CSV rendering
    /// (header + cells + separators). This is the denominator of every
    /// compression ratio reported in the evaluation, matching the paper's
    /// "size of the original dataset".
    pub fn raw_size(&self) -> usize {
        let header: usize = self
            .schema
            .fields()
            .iter()
            .map(|f| crate::csv::escaped_len(&f.name) + 1) // name + comma/newline
            .sum();
        let mut body = 0usize;
        let mut number = String::new();
        for c in &self.columns {
            match c {
                Column::Cat(v) => {
                    for s in v.iter() {
                        body += crate::csv::escaped_len(s) + 1;
                    }
                }
                Column::Num(v) => {
                    for &x in v {
                        number.clear();
                        crate::column::write_number(&mut number, x);
                        body += number.len() + 1;
                    }
                }
            }
        }
        header + body
    }

    /// Resident bytes of the cell payload: 8 per number, 4 per
    /// categorical code, and each categorical column's pool once (entry
    /// bytes plus a 16-byte `Box<str>` each) — shared or not, so the
    /// figure depends on the table alone. Counts content, not allocator
    /// capacity, so it is deterministic: the shard cache budgets by it
    /// and the streaming pipeline's `stream.peak_chunk_bytes` gauge
    /// reports it.
    pub fn mem_size(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => v.len() * 8,
                Column::Cat(v) => v.mem_size(),
            })
            .sum()
    }

    /// A new table containing the rows at `indexes`, in order.
    pub fn take(&self, indexes: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indexes)).collect();
        Table {
            schema: self.schema.clone(),
            columns,
            nrows: indexes.len(),
        }
    }

    /// A new table containing the contiguous row range (clamped to the
    /// table), preserving order — the row-group slicing primitive behind
    /// sharded archives.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Table {
        let start = range.start.min(self.nrows);
        let end = range.end.min(self.nrows).max(start);
        let columns = self
            .columns
            .iter()
            .map(|c| match c {
                Column::Num(v) => Column::Num(v[start..end].to_vec()),
                Column::Cat(v) => Column::Cat(v.slice(start..end)),
            })
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            nrows: end - start,
        }
    }

    /// Concatenates tables with identical schemas, rows in argument order:
    /// one copy of each part's numbers and categorical codes, with the
    /// first part's categorical pools shared by every part that agrees
    /// with them (the same allocation, or equal entries); a part that
    /// does not has the pool entries its rows reference appended to a
    /// private copy and its codes renumbered.
    pub fn concat<T: std::borrow::Borrow<Table>>(parts: &[T]) -> Result<Table> {
        let parts: Vec<&Table> = parts.iter().map(|part| part.borrow()).collect();
        let first = *parts.first().ok_or(TableError::SchemaMismatch)?;
        if parts.iter().any(|part| part.schema != first.schema) {
            return Err(TableError::SchemaMismatch);
        }
        let nrows = parts.iter().map(|part| part.nrows).sum();
        // Equal schemas mean equal column counts and types.
        let columns = first
            .columns
            .iter()
            .enumerate()
            .map(|(i, column)| match column {
                Column::Num(_) => {
                    let mut joined = Vec::with_capacity(nrows);
                    for part in &parts {
                        let values = part.columns[i].as_num();
                        joined.extend_from_slice(values.ok_or(TableError::SchemaMismatch)?);
                    }
                    Ok(Column::Num(joined))
                }
                Column::Cat(_) => {
                    let cats: Option<Vec<&CatColumn>> =
                        parts.iter().map(|part| part.columns[i].as_cat()).collect();
                    let joined = cats.as_deref().and_then(CatColumn::concat);
                    Ok(Column::Cat(joined.ok_or(TableError::SchemaMismatch)?))
                }
            })
            .collect::<Result<Vec<Column>>>()?;
        Ok(Table {
            schema: first.schema.clone(),
            columns,
            nrows,
        })
    }

    /// A seeded uniform random sample of `size` rows (without replacement;
    /// clamped to the table size). Mirrors the paper's `sample(x, s)`.
    pub fn sample(&self, size: usize, seed: u64) -> Table {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..self.nrows).collect();
        idx.shuffle(&mut rng);
        idx.truncate(size.min(self.nrows));
        self.take(&idx)
    }

    /// Renders one row as owned cell strings (test/debug aid).
    pub fn row(&self, r: usize) -> Vec<String> {
        self.columns.iter().map(|c| c.format_cell(r)).collect()
    }

    /// Summary counts matching Table 1 of the paper: (categorical, numeric).
    pub fn type_counts(&self) -> (usize, usize) {
        let cat = self
            .schema
            .fields()
            .iter()
            .filter(|f| f.ty == ColumnType::Categorical)
            .count();
        (cat, self.schema.len() - cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Table {
        Table::from_columns(vec![
            ("city".into(), Column::cat(["NYC", "LA"])),
            ("pop".into(), Column::Num(vec![8.4, 3.9])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_types() {
        let t = small_table();
        assert_eq!(t.nrows(), 2);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.type_counts(), (1, 1));

        let ragged = Table::from_columns(vec![
            ("a".into(), Column::Num(vec![1.0])),
            ("b".into(), Column::Num(vec![1.0, 2.0])),
        ]);
        assert!(matches!(ragged, Err(TableError::RaggedColumns { .. })));

        let schema = Schema::new(vec![Field::categorical("a")]).unwrap();
        let wrong_type = Table::new(schema, vec![Column::Num(vec![1.0])]);
        assert!(matches!(wrong_type, Err(TableError::SchemaMismatch)));
    }

    #[test]
    fn column_by_name() {
        let t = small_table();
        assert!(t.column_by_name("city").is_ok());
        assert!(matches!(
            t.column_by_name("nope"),
            Err(TableError::NoSuchColumn(_))
        ));
    }

    #[test]
    fn raw_size_counts_csv_bytes() {
        let t = small_table();
        // header: "city,pop\n" = 9; rows: "NYC,8.4\n" = 8, "LA,3.9\n" = 7.
        assert_eq!(t.raw_size(), 9 + 8 + 7);
    }

    #[test]
    fn mem_size_counts_numbers_codes_and_each_pool_once() {
        let t = small_table();
        // pop: 2 × 8. city: 2 codes × 4, pool "NYC" + "LA" = 5 bytes and
        // two 16-byte boxes.
        assert_eq!(t.mem_size(), 16 + 8 + 5 + 32);
        // A cut shares the pool and still counts all of it: the figure
        // is a function of the table, not of who else holds the pool.
        assert_eq!(t.slice_rows(0..1).mem_size(), 8 + 4 + 5 + 32);
        // Entries are counted as stored, duplicates and unused included.
        let pool: Vec<Box<str>> = vec!["a".into(), "a".into(), "zz".into()];
        let padded = CatColumn::from_parts(pool, vec![1]).unwrap();
        let t = Table::from_columns(vec![("c".into(), Column::Cat(padded))]).unwrap();
        assert_eq!(t.mem_size(), 4 + 4 + 48);
    }

    #[test]
    fn sample_is_deterministic_and_bounded() {
        let t = Table::from_columns(vec![(
            "x".into(),
            Column::Num((0..100).map(f64::from).collect()),
        )])
        .unwrap();
        let a = t.sample(10, 7);
        let b = t.sample(10, 7);
        assert_eq!(a, b);
        assert_eq!(a.nrows(), 10);
        // Requesting more rows than exist clamps.
        assert_eq!(t.sample(1000, 7).nrows(), 100);
        // Different seed, (almost surely) different selection.
        let c = t.sample(10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn slice_rows_clamps_and_preserves_order() {
        let t = Table::from_columns(vec![
            ("x".into(), Column::Num((0..10).map(f64::from).collect())),
            ("s".into(), Column::cat((0..10).map(|i| format!("v{i}")))),
        ])
        .unwrap();
        let s = t.slice_rows(3..7);
        assert_eq!(s.nrows(), 4);
        assert_eq!(s.row(0), vec!["3".to_string(), "v3".to_string()]);
        assert_eq!(s.row(3), vec!["6".to_string(), "v6".to_string()]);
        assert_eq!(t.slice_rows(8..100).nrows(), 2);
        assert_eq!(t.slice_rows(20..30).nrows(), 0);
        #[allow(clippy::reversed_empty_ranges)]
        let rev = t.slice_rows(7..3);
        assert_eq!(rev.nrows(), 0);
    }

    #[test]
    fn concat_rebuilds_sliced_table() {
        let t = Table::from_columns(vec![
            ("x".into(), Column::Num((0..9).map(f64::from).collect())),
            ("s".into(), Column::cat((0..9).map(|i| format!("v{i}")))),
        ])
        .unwrap();
        let parts: Vec<Table> = (0..3).map(|i| t.slice_rows(i * 3..i * 3 + 3)).collect();
        assert_eq!(Table::concat(&parts).unwrap(), t);
        assert!(Table::concat::<Table>(&[]).is_err());
        let other = small_table();
        assert!(Table::concat(&[t, other]).is_err());
    }

    #[test]
    fn take_preserves_schema() {
        let t = small_table();
        let sub = t.take(&[1]);
        assert_eq!(sub.nrows(), 1);
        assert_eq!(sub.row(0), vec!["LA".to_string(), "3.9".to_string()]);
        assert_eq!(sub.schema(), t.schema());
    }
}
