//! The lossless baselines of §7: gzip (via [`ds_codec::gzlike`]) and
//! Parquet (via [`ds_codec::parq`]).

use ds_codec::{gzlike, parq};
use ds_table::{csv, Column, Table};

/// Compressed size of the table's CSV rendering under the gzip stand-in.
pub fn gzip_size(table: &Table) -> usize {
    gzlike::compress(csv::write_csv(table).as_bytes()).len()
}

/// Roundtrips the gzip path (for tests/timing): compress then decompress,
/// returning (compressed size, decompressed byte count).
pub fn gzip_roundtrip(table: &Table) -> (usize, usize) {
    let raw = csv::write_csv(table);
    let compressed = gzlike::compress(raw.as_bytes());
    let restored = gzlike::decompress(&compressed).expect("own output roundtrips");
    (compressed.len(), restored.len())
}

/// Converts a table to parq columns.
pub fn to_parq_columns(table: &Table) -> Vec<(String, parq::ParqColumn)> {
    table
        .schema()
        .fields()
        .iter()
        .zip(table.columns())
        .map(|(f, c)| {
            let col = match c {
                Column::Cat(v) => parq::ParqColumn::Str(v.iter().map(str::to_owned).collect()),
                Column::Num(v) => parq::ParqColumn::F64(v.clone()),
            };
            (f.name.clone(), col)
        })
        .collect()
}

/// Compressed size of the table under the Parquet-like container.
pub fn parquet_size(table: &Table) -> usize {
    let cols = to_parq_columns(table);
    parq::write_table(&cols)
        .expect("well-formed columns")
        .0
        .len()
}

/// Roundtrips the parquet path, returning the compressed size.
pub fn parquet_roundtrip(table: &Table) -> usize {
    let cols = to_parq_columns(table);
    let (bytes, _) = parq::write_table(&cols).expect("well-formed columns");
    let back = parq::read_table(&bytes).expect("own output roundtrips");
    assert_eq!(back.len(), cols.len());
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_table::gen;

    #[test]
    fn baselines_compress_and_roundtrip() {
        let t = gen::monitor_like(500, 1);
        let raw = t.raw_size();
        let (gz, restored) = gzip_roundtrip(&t);
        assert!(gz < raw);
        assert_eq!(restored, csv::write_csv(&t).len());
        let pq = parquet_roundtrip(&t);
        assert!(pq < raw);
    }

    #[test]
    fn parquet_beats_gzip_on_columnar_data() {
        // The paper's Fig. 6a shape: Parquet generally outperforms gzip.
        let t = gen::census_like(2000, 2);
        assert!(parquet_size(&t) < gzip_size(&t));
    }
}
