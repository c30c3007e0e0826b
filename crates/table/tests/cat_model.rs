//! `Table` semantics against a reference model that stores every
//! categorical cell as its own `String` — the representation `ds-table`
//! had before a column became a value pool plus codes. Whatever the pool
//! looks like (interned, permuted, padded with duplicates and unused
//! entries, or one entry per row), every operation must answer as the
//! model does, and CSV output must match the model's own renderer byte
//! for byte.

use std::collections::HashSet;
use std::sync::Arc;

use ds_table::csv::{read_csv, write_csv};
use ds_table::gen::Dataset;
use ds_table::{CatColumn, Column, Table};
use proptest::prelude::*;

/// Cells that exercise the CSV writer: empty, quoted for three different
/// reasons, multi-byte, and plain values that collide often.
const PALETTE: [&str; 9] = [
    "", "plain", "a,b", "q\"q", "nl\nnl", " lead", "ünï", "x", "y",
];

#[derive(Debug, Clone, PartialEq)]
enum ModelCol {
    Cat(Vec<String>),
    Num(Vec<f64>),
}

/// The reference: named columns of owned cells.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    cols: Vec<(String, ModelCol)>,
}

impl Model {
    fn of(table: &Table) -> Model {
        let cols = table
            .schema()
            .fields()
            .iter()
            .zip(table.columns())
            .map(|(f, c)| {
                let col = match c {
                    Column::Cat(v) => ModelCol::Cat(v.iter().map(str::to_owned).collect()),
                    Column::Num(v) => ModelCol::Num(v.clone()),
                };
                (f.name.clone(), col)
            })
            .collect();
        Model { cols }
    }

    fn nrows(&self) -> usize {
        self.cols.first().map_or(0, |(_, c)| match c {
            ModelCol::Cat(v) => v.len(),
            ModelCol::Num(v) => v.len(),
        })
    }

    fn take(&self, rows: &[usize]) -> Model {
        let cols = self
            .cols
            .iter()
            .map(|(name, c)| {
                let col = match c {
                    ModelCol::Cat(v) => ModelCol::Cat(rows.iter().map(|&r| v[r].clone()).collect()),
                    ModelCol::Num(v) => ModelCol::Num(rows.iter().map(|&r| v[r]).collect()),
                };
                (name.clone(), col)
            })
            .collect();
        Model { cols }
    }

    fn concat(parts: &[Model]) -> Model {
        let mut out = parts[0].clone();
        for part in &parts[1..] {
            for ((_, dst), (_, src)) in out.cols.iter_mut().zip(&part.cols) {
                match (dst, src) {
                    (ModelCol::Cat(d), ModelCol::Cat(s)) => d.extend_from_slice(s),
                    (ModelCol::Num(d), ModelCol::Num(s)) => d.extend_from_slice(s),
                    _ => panic!("model parts disagree on a column type"),
                }
            }
        }
        out
    }

    /// The model's own CSV renderer: RFC-4180 quoting, and the numeric
    /// text rule as it was written before the writer formatted in place.
    fn csv(&self) -> String {
        fn quoted(cell: &str) -> String {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        fn number(v: f64) -> String {
            if !v.is_finite() {
                return v.to_string();
            }
            if v == v.trunc() && v.abs() < 1e15 {
                return format!("{}", v as i64);
            }
            let s = format!("{v:.6}");
            s.trim_end_matches('0').trim_end_matches('.').to_owned()
        }
        let header: Vec<String> = self.cols.iter().map(|(name, _)| quoted(name)).collect();
        let mut out = header.join(",");
        out.push('\n');
        for r in 0..self.nrows() {
            let cells: Vec<String> = self
                .cols
                .iter()
                .map(|(_, c)| match c {
                    ModelCol::Cat(v) => quoted(&v[r]),
                    ModelCol::Num(v) => number(v[r]),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// The model as a table, each categorical column under one of three
    /// encodings of the same cells.
    fn table(&self, encoding: usize) -> Table {
        let named = self
            .cols
            .iter()
            .enumerate()
            .map(|(i, (name, c))| {
                let col = match c {
                    ModelCol::Num(v) => Column::Num(v.clone()),
                    ModelCol::Cat(v) => Column::Cat(encode(v, (encoding + i) % 3)),
                };
                (name.clone(), col)
            })
            .collect();
        Table::from_columns(named).expect("model columns are equal length")
    }
}

/// 0: interned in first-appearance order. 1: the distinct values in
/// reverse order, each entry twice, plus an entry no row uses, rows
/// alternating between the twins. 2: one pool entry per row (the shape a
/// fallback column decodes to).
fn encode(cells: &[String], encoding: usize) -> CatColumn {
    match encoding {
        0 => cells.iter().collect(),
        1 => {
            let mut distinct: Vec<&str> = Vec::new();
            for c in cells {
                if !distinct.contains(&c.as_str()) {
                    distinct.push(c);
                }
            }
            distinct.reverse();
            let mut pool: Vec<Box<str>> = vec!["never used".into()];
            for d in &distinct {
                pool.push((*d).into());
                pool.push((*d).into());
            }
            let codes = cells
                .iter()
                .enumerate()
                .map(|(r, c)| {
                    let at = distinct.iter().position(|d| d == c).expect("listed above");
                    (1 + 2 * at + r % 2) as u32
                })
                .collect();
            CatColumn::from_parts(pool, codes).expect("codes in range")
        }
        _ => {
            let pool: Vec<Box<str>> = cells.iter().map(|c| c.as_str().into()).collect();
            let codes = (0..cells.len() as u32).collect();
            CatColumn::from_parts(pool, codes).expect("codes in range")
        }
    }
}

/// One numeric column (so a row of empty cells is still a CSV record)
/// and 1–3 categorical ones over the palette, 0–40 rows.
fn arb_model() -> impl Strategy<Value = Model> {
    (1usize..=3, 0usize..=40).prop_flat_map(|(ncats, nrows)| {
        let nums = prop::collection::vec(-50i32..50, nrows..=nrows);
        let cats = prop::collection::vec(
            prop::collection::vec(0usize..PALETTE.len(), nrows..=nrows),
            ncats..=ncats,
        );
        (nums, cats).prop_map(|(nums, cats)| {
            let mut cols = vec![(
                "n".to_owned(),
                ModelCol::Num(nums.into_iter().map(|v| f64::from(v) / 4.0).collect()),
            )];
            for (i, picks) in cats.into_iter().enumerate() {
                let cells = picks.into_iter().map(|p| PALETTE[p].to_owned()).collect();
                cols.push((format!("c,{i}"), ModelCol::Cat(cells)));
            }
            Model { cols }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_encoding_answers_as_the_model(
        model in arb_model(),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 2..=2),
        picks in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
        seed in any::<u64>(),
    ) {
        let n = model.nrows();
        let tables: Vec<Table> = (0..3).map(|e| model.table(e)).collect();
        let (a, b) = (cuts[0].index(n + 1), cuts[1].index(n + 1));
        let range = a.min(b)..a.max(b);
        let rows: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            picks.iter().map(|p| p.index(n)).collect()
        };
        let csv = model.csv();
        for t in &tables {
            // Equality is by value, across pools and both ways round.
            prop_assert_eq!(t, &tables[0]);
            prop_assert_eq!(&tables[0], t);
            prop_assert_eq!(&Model::of(t), &model);
            // Rendering, its size, and the way back.
            prop_assert_eq!(&write_csv(t), &csv);
            prop_assert_eq!(t.raw_size(), csv.len());
            prop_assert_eq!(&read_csv(&csv, t.schema().clone()).expect("parses"), t);
            // Row selection.
            let all: Vec<usize> = range.clone().collect();
            prop_assert_eq!(Model::of(&t.slice_rows(range.clone())), model.take(&all));
            prop_assert_eq!(Model::of(&t.take(&rows)), model.take(&rows));
            let sample = t.sample(7, seed);
            prop_assert_eq!(&sample, &tables[0].sample(7, seed));
            prop_assert_eq!(sample.nrows(), n.min(7));
            for (c, (_, m)) in t.columns().iter().zip(&model.cols) {
                let distinct = match m {
                    ModelCol::Cat(v) => v.iter().collect::<HashSet<_>>().len(),
                    ModelCol::Num(v) => v.iter().map(|x| x.to_bits()).collect::<HashSet<_>>().len(),
                };
                prop_assert_eq!(c.distinct_count(), distinct);
            }
        }
        // Concatenation: cuts of one table (one pool, by pointer), the
        // same cells under an equal-content pool built separately, and
        // parts whose pools differ and must be renumbered.
        let whole: Vec<usize> = (0..n).collect();
        let want = Model::concat(&[model.take(&rows), model.clone(), model.take(&whole[range.clone()])]);
        for first in 0..3 {
            let parts = [
                tables[first].take(&rows),
                tables[(first + 1) % 3].clone(),
                tables[(first + 2) % 3].slice_rows(range.clone()),
            ];
            prop_assert_eq!(Model::of(&Table::concat(&parts).expect("same schema")), want.clone());
            let same_pool = [
                tables[first].take(&rows),
                tables[first].clone(),
                model.table(first).slice_rows(range.clone()),
            ];
            let joined = Table::concat(&same_pool).expect("same schema");
            prop_assert_eq!(Model::of(&joined), want.clone());
            for (j, p) in joined.columns().iter().zip(tables[first].columns()) {
                if let (Column::Cat(j), Column::Cat(p)) = (j, p) {
                    prop_assert!(Arc::ptr_eq(j.pool(), p.pool()), "agreeing parts share the first pool");
                }
            }
        }
        // One differing cell is a different table under every encoding.
        if let Some(r) = rows.first() {
            let mut other = model.clone();
            if let ModelCol::Cat(v) = &mut other.cols[1].1 {
                v[*r].push('!');
            }
            for e in 0..3 {
                prop_assert!(other.table(e) != tables[0]);
            }
        }
    }
}

#[test]
fn generators_render_as_the_model_renders_them() {
    for d in Dataset::ALL {
        let t = d.generate(300, 17);
        let model = Model::of(&t);
        let csv = write_csv(&t);
        assert_eq!(csv, model.csv(), "{}", d.name());
        assert_eq!(t.raw_size(), csv.len(), "{}", d.name());
        assert_eq!(read_csv(&csv, t.schema().clone()).expect("parses"), t);
        // Re-interning every cell gives an equal table: the generators'
        // keyed pools are an encoding, not a different value.
        assert_eq!(model.table(0), t, "{}", d.name());
    }
}

#[test]
fn zero_row_and_zero_column_tables_keep_working() {
    let empty = Dataset::Forest.generate(0, 1);
    assert_eq!((empty.nrows(), empty.ncols()), (0, 55));
    assert_eq!(empty.mem_size(), 0);
    assert_eq!(empty.slice_rows(0..10), empty);
    assert_eq!(empty.take(&[]), empty);
    assert_eq!(empty.sample(5, 3), empty);
    assert_eq!(
        Table::concat(&[empty.clone(), empty.clone()]).expect("joins"),
        empty
    );
    assert_eq!(Table::empty(empty.schema().clone()), empty);
    let csv = write_csv(&empty);
    assert_eq!(csv.len(), empty.raw_size());
    assert_eq!(
        read_csv(&csv, empty.schema().clone()).expect("parses"),
        empty
    );
    // Rows joined onto no rows: the first part's (empty) pools disagree
    // with the second's, so the values move to a fresh pool.
    let some = Dataset::Forest.generate(5, 1);
    assert_eq!(
        Table::concat(&[empty.clone(), some.clone()]).expect("joins"),
        some
    );

    let bare = Table::from_columns(Vec::new()).expect("no columns is a table");
    assert_eq!((bare.nrows(), bare.ncols(), bare.mem_size()), (0, 0, 0));
    assert_eq!(bare.slice_rows(0..3), bare);
    assert_eq!(bare.take(&[]), bare);
    assert_eq!(
        Table::concat(&[bare.clone(), bare.clone()]).expect("joins"),
        bare
    );
    assert_eq!(write_csv(&bare), "\n");
}
