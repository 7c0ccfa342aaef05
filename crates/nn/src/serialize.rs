//! Weight (de)serialization.
//!
//! Deploying a microclassifier in the paper means shipping "the network
//! weights and architecture specification" to the edge node (§3.2). The
//! architecture spec travels as serde-serializable config structs
//! (`ff-models`); the weights travel in the simple binary format
//! implemented here:
//!
//! ```text
//! magic "FFNW" | u32 version | u32 n_params |
//!   per param: u32 rank | u32 dims[rank] | f32 data[∏dims]
//! ```
//!
//! All integers and floats are little-endian.

use std::io::{Read, Write};

use crate::Sequential;

const MAGIC: &[u8; 4] = b"FFNW";
const VERSION: u32 = 1;

/// Errors from weight (de)serialization.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The stream is not a valid weights file.
    Format(String),
    /// The weights do not match the network's parameter shapes.
    ShapeMismatch(String),
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Format(m) => write!(f, "invalid weights file: {m}"),
            SerializeError::ShapeMismatch(m) => write!(f, "weight shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Writes all parameters of `net` to `w`.
///
/// # Errors
///
/// Returns [`SerializeError::Io`] on write failure.
pub fn save_weights<W: Write>(net: &mut Sequential, w: W) -> Result<(), SerializeError> {
    save_params(net.params_mut(), w)
}

/// Writes an explicit parameter list (for models that are not a single
/// [`Sequential`], like the windowed microclassifier).
///
/// # Errors
///
/// Returns [`SerializeError::Io`] on write failure.
pub fn save_params<W: Write>(
    params: Vec<&mut crate::Param>,
    mut w: W,
) -> Result<(), SerializeError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        w.write_all(&(p.value.rank() as u32).to_le_bytes())?;
        for &d in p.value.dims() {
            w.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in p.value.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads parameters from `r` into `net`, verifying shapes.
///
/// # Errors
///
/// Returns [`SerializeError::Format`] for a corrupt stream,
/// [`SerializeError::ShapeMismatch`] if the file disagrees with the
/// network's parameter list, or [`SerializeError::Io`] on read failure.
pub fn load_weights<R: Read>(net: &mut Sequential, r: R) -> Result<(), SerializeError> {
    load_params(net.params_mut(), r)
}

/// Reads weights into an explicit parameter list (see [`save_params`]).
///
/// The whole stream is read and checked before any parameter changes, so a
/// failed load leaves every parameter as it was.
///
/// # Errors
///
/// Same as [`load_weights`].
pub fn load_params<R: Read>(
    mut params: Vec<&mut crate::Param>,
    mut r: R,
) -> Result<(), SerializeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SerializeError::Format("bad magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(SerializeError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let n = read_u32(&mut r)? as usize;
    if n != params.len() {
        return Err(SerializeError::ShapeMismatch(format!(
            "file has {n} params, network has {}",
            params.len()
        )));
    }
    let mut staged = Vec::with_capacity(n);
    for (i, p) in params.iter().enumerate() {
        let rank = read_u32(&mut r)? as usize;
        if rank > 8 {
            return Err(SerializeError::Format(format!(
                "param {i}: rank {rank} too large"
            )));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u32(&mut r)? as usize);
        }
        if dims != p.value.dims() {
            return Err(SerializeError::ShapeMismatch(format!(
                "param {i}: file {dims:?} vs network {:?}",
                p.value.dims()
            )));
        }
        let mut bytes = vec![0u8; p.value.len() * 4];
        r.read_exact(&mut bytes)?;
        staged.push(bytes);
    }
    for (p, bytes) in params.iter_mut().zip(staged) {
        for (v, b) in p.value.data_mut().iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    Ok(())
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, SerializeError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Flatten, Phase};
    use ff_tensor::Tensor;

    fn net(seed: u64) -> Sequential {
        let mut n = Sequential::new();
        n.push("conv", Conv2d::new(3, 1, 1, 2, seed));
        n.push("flat", Flatten::new());
        n.push("fc", Dense::new(4 * 4 * 2, 1, seed + 1));
        n
    }

    #[test]
    fn roundtrip_restores_outputs() {
        let mut a = net(100);
        let mut b = net(200); // different weights
        let x = Tensor::filled(vec![4, 4, 1], 0.7);
        let ya = a.forward(&x, Phase::Inference);
        assert!(!ya.approx_eq(&b.forward(&x, Phase::Inference), 1e-6));

        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        load_weights(&mut b, buf.as_slice()).unwrap();
        assert!(ya.approx_eq(&b.forward(&x, Phase::Inference), 1e-6));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut b = net(1);
        let err = load_weights(&mut b, &b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut a = net(1);
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        let mut other = Sequential::new();
        other.push("fc", Dense::new(3, 1, 0));
        let err = load_weights(&mut other, buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerializeError::ShapeMismatch(_)));
    }

    #[test]
    fn rejects_truncation() {
        let mut a = net(1);
        let mut buf = Vec::new();
        save_weights(&mut a, &mut buf).unwrap();
        // The header is 12 bytes and the conv weight `[9, 2]` the first
        // param (4 + 2·4 + 18·4 bytes): cut mid-stream, and just after it.
        let first_param = 12 + 4 + 2 * 4 + 18 * 4;
        let x = Tensor::filled(vec![4, 4, 1], 0.7);
        let bits = |net: &mut Sequential| -> Vec<u32> {
            let y = net.forward(&x, Phase::Inference);
            y.data().iter().map(|v| v.to_bits()).collect()
        };
        for cut in [buf.len() / 2, first_param] {
            let mut b = net(2);
            let before = bits(&mut b);
            assert!(load_weights(&mut b, &buf[..cut]).is_err(), "cut at {cut}");
            // A failed load leaves the model untouched, bit for bit.
            assert_eq!(bits(&mut b), before, "cut at {cut}");
        }
    }
}
