//! Weight serialization: the materialized decoder of §6.1.
//!
//! Only the decoder half of each expert is stored ("the encoder is required
//! exclusively during the compression process"). The format is a compact
//! little-endian layout — spec header, then per-layer dims + f32 weights.
//! The paper's final gzip step (§6.1) is applied by the caller (`ds-core`
//! runs the exported bytes through its gzip-like codec); this module stays
//! dependency-free.

use crate::autoencoder::{Autoencoder, Head, ModelSpec};
use crate::dense::{Activation, Dense};
use crate::mat::Mat;
use crate::moe::MoeAutoencoder;
use crate::{NnError, Result};

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32> {
        if self.pos + 4 > self.buf.len() {
            return Err(NnError::Corrupt("truncated weight stream"));
        }
        let v = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        );
        self.pos += 4;
        Ok(v)
    }

    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// How many 4-byte words are left: the most any declared count may
    /// claim before it sizes an allocation.
    fn words_left(&self) -> usize {
        self.buf.len().saturating_sub(self.pos) / 4
    }
}

fn write_spec(out: &mut Vec<u8>, spec: &ModelSpec) {
    push_u32(out, spec.heads.len() as u32);
    for h in &spec.heads {
        match h {
            Head::Numeric => push_u32(out, 0),
            Head::Binary => push_u32(out, 1),
            Head::Categorical { card } => {
                push_u32(out, 2);
                push_u32(out, *card as u32);
            }
        }
    }
    push_u32(out, spec.code_size as u32);
    push_u32(out, spec.hidden as u32);
    push_u32(out, u32::from(spec.linear_single_layer));
    push_f32(out, spec.numeric_loss_weight);
    push_u32(out, spec.aux_width as u32);
}

fn read_spec(r: &mut Reader<'_>) -> Result<ModelSpec> {
    let n = r.u32()? as usize;
    if n > r.words_left() {
        return Err(NnError::Corrupt("implausible head count"));
    }
    let mut heads = Vec::with_capacity(n);
    for _ in 0..n {
        heads.push(match r.u32()? {
            0 => Head::Numeric,
            1 => Head::Binary,
            2 => Head::Categorical {
                card: r.u32()? as usize,
            },
            _ => return Err(NnError::Corrupt("unknown head tag")),
        });
    }
    let code_size = r.u32()? as usize;
    let hidden = r.u32()? as usize;
    let linear_single_layer = r.u32()? != 0;
    let numeric_loss_weight = r.f32()?;
    let aux_width = r.u32()? as usize;
    Ok(ModelSpec {
        heads,
        code_size,
        hidden,
        linear_single_layer,
        numeric_loss_weight,
        aux_width,
    })
}

fn write_layer(out: &mut Vec<u8>, layer: &Dense) {
    push_u32(out, layer.w.rows() as u32);
    push_u32(out, layer.w.cols() as u32);
    push_u32(out, activation_tag(layer.act));
    for &v in layer.w.data() {
        push_f32(out, v);
    }
    for &v in &layer.b {
        push_f32(out, v);
    }
}

fn read_layer(r: &mut Reader<'_>) -> Result<Dense> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    // Zero dims are checked explicitly: `rows == 0` would let an
    // arbitrary `cols` through the product bound (and vice versa), and
    // no real layer is empty.
    if rows == 0 || cols == 0 || rows.checked_mul(cols).is_none_or(|n| n > 1 << 26) {
        return Err(NnError::Corrupt("implausible layer size"));
    }
    let act = activation_from_tag(r.u32()?)?;
    if rows * cols + cols > r.words_left() {
        return Err(NnError::Corrupt("truncated weight stream"));
    }
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(r.f32()?);
    }
    let mut b = Vec::with_capacity(cols);
    for _ in 0..cols {
        b.push(r.f32()?);
    }
    Ok(Dense {
        w: Mat::from_vec(rows, cols, data),
        b,
        act,
    })
}

fn activation_tag(a: Activation) -> u32 {
    match a {
        Activation::Identity => 0,
        Activation::Relu => 1,
        Activation::Sigmoid => 2,
        Activation::Tanh => 3,
    }
}

fn activation_from_tag(tag: u32) -> Result<Activation> {
    Ok(match tag {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::Sigmoid,
        3 => Activation::Tanh,
        _ => return Err(NnError::Corrupt("unknown activation tag")),
    })
}

/// Serializes the decoder halves of every expert in a mixture.
pub fn export_decoders(model: &MoeAutoencoder) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"DSNN");
    push_u32(&mut out, model.n_experts() as u32);
    let spec = model.experts()[0].spec();
    write_spec(&mut out, spec);
    for expert in model.experts() {
        let layers = expert.decoder_layers();
        push_u32(&mut out, layers.len() as u32);
        for layer in layers {
            write_layer(&mut out, layer);
        }
    }
    out
}

/// Reconstructs a decoder-only mixture from [`export_decoders`] output.
pub fn import_decoders(bytes: &[u8]) -> Result<MoeAutoencoder> {
    if bytes.len() < 8 || &bytes[..4] != b"DSNN" {
        return Err(NnError::Corrupt("bad magic"));
    }
    let mut r = Reader { buf: bytes, pos: 4 };
    let n_experts = r.u32()? as usize;
    if n_experts == 0 || n_experts > 4096 {
        return Err(NnError::Corrupt("implausible expert count"));
    }
    let spec = read_spec(&mut r)?;
    let mut experts = Vec::with_capacity(n_experts);
    for _ in 0..n_experts {
        let n_layers = r.u32()? as usize;
        if n_layers > 64 {
            return Err(NnError::Corrupt("implausible layer count"));
        }
        let layers = (0..n_layers)
            .map(|_| read_layer(&mut r))
            .collect::<Result<Vec<_>>>()?;
        experts.push(Autoencoder::from_decoder_parts(spec.clone(), layers)?);
    }
    Ok(MoeAutoencoder::from_experts(experts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moe::MoeConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_model(n_experts: usize) -> (MoeAutoencoder, Mat, Vec<Vec<u32>>) {
        let mut rng = StdRng::seed_from_u64(20);
        let n = 64;
        let mut x = Mat::zeros(n, 3);
        let mut cat = vec![0u32; n];
        for r in 0..n {
            let v: f32 = rng.gen();
            x.set(r, 0, v);
            cat[r] = (v * 2.999) as u32;
            x.set(r, 1, cat[r] as f32 / 2.0);
            x.set(r, 2, if v > 0.4 { 1.0 } else { 0.0 });
        }
        let spec = ModelSpec::with_defaults(
            vec![Head::Numeric, Head::Categorical { card: 3 }, Head::Binary],
            2,
        );
        let cfg = MoeConfig {
            n_experts,
            max_epochs: 5,
            seed: 21,
            ..Default::default()
        };
        let (model, _) = MoeAutoencoder::train(&spec, &x, &[cat.clone()], &cfg).unwrap();
        (model, x, vec![cat])
    }

    #[test]
    fn decoder_roundtrip_reproduces_outputs_exactly() {
        for n_experts in [1, 3] {
            let (model, x, _) = trained_model(n_experts);
            let bytes = export_decoders(&model);
            let restored = import_decoders(&bytes).unwrap();
            assert_eq!(restored.n_experts(), n_experts);
            for e in 0..n_experts {
                let codes = model.encode(e, &x).unwrap();
                let a = model.decode(e, &codes).unwrap();
                let b = restored.decode(e, &codes).unwrap();
                assert_eq!(a.simple.data(), b.simple.data());
                for (pa, pb) in a.cat_probs.iter().zip(&b.cat_probs) {
                    assert_eq!(pa.data(), pb.data());
                }
            }
        }
    }

    #[test]
    fn corrupt_streams_rejected() {
        let (model, _, _) = trained_model(1);
        let bytes = export_decoders(&model);
        assert!(import_decoders(&bytes[1..]).is_err()); // bad magic
        assert!(import_decoders(&bytes[..bytes.len() - 3]).is_err()); // truncated
        assert!(import_decoders(b"DSNN").is_err()); // header only
        let mut bad = bytes.clone();
        bad[5] = 0xFF; // absurd expert count
        assert!(import_decoders(&bad).is_err());
    }

    #[test]
    fn export_size_tracks_parameters() {
        let (one, _, _) = trained_model(1);
        let (three, _, _) = trained_model(3);
        let s1 = export_decoders(&one).len();
        let s3 = export_decoders(&three).len();
        // Three experts ≈ 3× the decoder weights (plus a shared header).
        assert!(s3 > s1 * 2, "{s3} vs {s1}");
        assert!(s3 < s1 * 4);
    }

    #[test]
    fn linear_variant_roundtrips() {
        let mut rng = StdRng::seed_from_u64(30);
        let spec = ModelSpec {
            linear_single_layer: true,
            ..ModelSpec::with_defaults(vec![Head::Numeric, Head::Numeric], 1)
        };
        let x = Mat::from_vec(4, 2, vec![0.1, 0.9, 0.5, 0.5, 0.2, 0.8, 0.7, 0.3]);
        let cfg = MoeConfig {
            n_experts: 1,
            max_epochs: 2,
            seed: 31,
            ..Default::default()
        };
        let (model, _) = MoeAutoencoder::train(&spec, &x, &[], &cfg).unwrap();
        let bytes = export_decoders(&model);
        let restored = import_decoders(&bytes).unwrap();
        let codes = model.encode(0, &x).unwrap();
        assert_eq!(
            model.decode(0, &codes).unwrap().simple.data(),
            restored.decode(0, &codes).unwrap().simple.data()
        );
        let _ = rng.gen::<f32>();
    }
}
