//! The bit-exact `f64` codec: `#[serde(with = "qni_model::bits")]`.
//!
//! A field under this adapter is written as the IEEE-754 bit pattern of
//! each float (`f64::to_bits`, a `u64`) and read back with
//! `f64::from_bits`, so every value survives a round trip unchanged —
//! NaN, ±∞ and signed zero included. JSON numbers carry none of those
//! (`serde_json` writes a non-finite float as `null`), and an integer is
//! also cheaper to write than a float's shortest decimal form. The
//! adapter covers `f64`, vectors of covered types, and a log's
//! `(state, queue, arrival, departure)` visits.

use crate::ids::{QueueId, StateId};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// A value whose serde form keeps every float bit-exact.
pub trait Bits: Sized {
    /// The serialized form: the value with each `f64` as its bits.
    type Repr: Serialize + DeserializeOwned;
    /// Encodes the value.
    fn to_repr(&self) -> Self::Repr;
    /// Decodes the value.
    fn from_repr(repr: Self::Repr) -> Self;
}

impl Bits for f64 {
    type Repr = u64;
    fn to_repr(&self) -> u64 {
        self.to_bits()
    }
    fn from_repr(repr: u64) -> Self {
        f64::from_bits(repr)
    }
}

impl<T: Bits> Bits for Vec<T> {
    type Repr = Vec<T::Repr>;
    fn to_repr(&self) -> Self::Repr {
        self.iter().map(Bits::to_repr).collect()
    }
    fn from_repr(repr: Self::Repr) -> Self {
        repr.into_iter().map(T::from_repr).collect()
    }
}

impl Bits for (StateId, QueueId, f64, f64) {
    type Repr = (StateId, QueueId, u64, u64);
    fn to_repr(&self) -> Self::Repr {
        (self.0, self.1, self.2.to_bits(), self.3.to_bits())
    }
    fn from_repr((s, q, a, d): Self::Repr) -> Self {
        (s, q, f64::from_bits(a), f64::from_bits(d))
    }
}

/// Writes `value` with its floats as bits.
pub fn serialize<T: Bits, S: Serializer>(value: &T, serializer: S) -> Result<S::Ok, S::Error> {
    value.to_repr().serialize(serializer)
}

/// Reads a value written by [`serialize`].
pub fn deserialize<'de, T: Bits, D: Deserializer<'de>>(deserializer: D) -> Result<T, D::Error> {
    T::Repr::deserialize(deserializer).map(T::from_repr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize, Deserialize)]
    struct Floats {
        #[serde(with = "crate::bits")]
        one: f64,
        #[serde(with = "crate::bits")]
        many: Vec<f64>,
    }

    /// Non-finite values and signed zero round-trip through JSON bit for
    /// bit, each written as its `u64` pattern.
    #[test]
    fn non_finite_floats_round_trip_bit_for_bit() {
        let many = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.1,
            5e-324,
        ];
        let json = serde_json::to_string(&Floats {
            one: -0.0,
            many: many.clone(),
        })
        .unwrap();
        assert!(
            json.starts_with(&format!("{{\"one\":{}", (-0.0f64).to_bits())),
            "{json}"
        );
        let back: Floats = serde_json::from_str(&json).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&[back.one]), bits(&[-0.0]));
        assert_eq!(bits(&back.many), bits(&many));
    }
}
