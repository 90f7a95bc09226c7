//! Converter power scaling with resolution and sampling rate.
//!
//! The paper's device library "supports power scaling with customized sampling
//! rates and bit resolutions, enabling power optimization via gating or
//! quantization". The models here follow the standard converter scaling laws:
//!
//! * DAC: power grows with the sampling rate and (roughly) with the number of
//!   output levels, `P ∝ f_s · (2^b − 1)`.
//! * ADC: Walden figure-of-merit scaling, `P ∝ f_s · 2^b`.

use serde::{Deserialize, Serialize};

use simphony_units::{BitWidth, Frequency, Power};

use crate::spec::DeviceSpec;

/// Scales a reference DAC power figure to a different resolution and sampling rate.
///
/// `P(b, f) = P_ref · (f / f_ref) · (2^b − 1) / (2^b_ref − 1)`
///
/// # Examples
///
/// ```
/// use simphony_devlib::scale_dac_power;
/// use simphony_units::{BitWidth, Frequency, Power};
///
/// let p8 = Power::from_milliwatts(26.0);
/// let p4 = scale_dac_power(p8, BitWidth::new(8), Frequency::from_gigahertz(10.0),
///                          BitWidth::new(4), Frequency::from_gigahertz(10.0));
/// assert!(p4.milliwatts() < p8.milliwatts() / 10.0);
/// ```
pub fn scale_dac_power(
    reference_power: Power,
    reference_bits: BitWidth,
    reference_rate: Frequency,
    target_bits: BitWidth,
    target_rate: Frequency,
) -> Power {
    let level_ratio = (target_bits.levels() as f64 - 1.0) / (reference_bits.levels() as f64 - 1.0);
    let rate_ratio = target_rate.hertz() / reference_rate.hertz();
    reference_power * (level_ratio * rate_ratio)
}

/// Scales a reference ADC power figure to a different resolution and sampling rate.
///
/// Uses the Walden figure of merit: `P(b, f) = P_ref · (f / f_ref) · 2^(b − b_ref)`.
///
/// # Examples
///
/// ```
/// use simphony_devlib::scale_adc_power;
/// use simphony_units::{BitWidth, Frequency, Power};
///
/// let p8 = Power::from_milliwatts(14.8);
/// let p6 = scale_adc_power(p8, BitWidth::new(8), Frequency::from_gigahertz(10.0),
///                          BitWidth::new(6), Frequency::from_gigahertz(10.0));
/// assert!((p6.milliwatts() - 3.7).abs() < 1e-9);
/// ```
pub fn scale_adc_power(
    reference_power: Power,
    reference_bits: BitWidth,
    reference_rate: Frequency,
    target_bits: BitWidth,
    target_rate: Frequency,
) -> Power {
    let bit_ratio = (target_bits.levels() as f64) / (reference_bits.levels() as f64);
    let rate_ratio = target_rate.hertz() / reference_rate.hertz();
    reference_power * (bit_ratio * rate_ratio)
}

/// Reference operating point used to rescale converter specs.
///
/// # Examples
///
/// ```
/// use simphony_devlib::{ConverterScaling, DeviceLibrary};
/// use simphony_units::{BitWidth, Frequency};
///
/// let lib = DeviceLibrary::standard();
/// let adc = lib.get("adc_8b_10gsps")?;
/// let scaling = ConverterScaling::new(BitWidth::new(8), Frequency::from_gigahertz(10.0));
/// let adc4 = scaling.rescale(adc, BitWidth::new(4), Frequency::from_gigahertz(5.0));
/// assert!(adc4.static_power().milliwatts() < adc.static_power().milliwatts());
/// # Ok::<(), simphony_devlib::DeviceError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConverterScaling {
    reference_bits: BitWidth,
    reference_rate: Frequency,
}

impl ConverterScaling {
    /// Creates a scaling helper anchored at the given reference operating point.
    pub fn new(reference_bits: BitWidth, reference_rate: Frequency) -> Self {
        Self {
            reference_bits,
            reference_rate,
        }
    }

    /// The reference resolution.
    pub fn reference_bits(&self) -> BitWidth {
        self.reference_bits
    }

    /// The reference sampling rate.
    pub fn reference_rate(&self) -> Frequency {
        self.reference_rate
    }

    /// Returns a copy of `spec` with its static power and converter
    /// annotations rescaled to the target resolution and rate; the
    /// per-operation dynamic energy is kept as it is.
    ///
    /// Non-converter specs are returned unchanged (their power does not follow
    /// converter scaling laws).
    pub fn rescale(&self, spec: &DeviceSpec, bits: BitWidth, rate: Frequency) -> DeviceSpec {
        if !spec.kind().is_converter() {
            return spec.clone();
        }
        spec.with_static_power(self.scaled_power(spec, bits, rate))
            .with_converter_settings(bits, rate)
    }

    /// The static power of [`rescale`](Self::rescale)'s copy of `spec`,
    /// without making the copy: a converter's power scaled from its own
    /// resolution and rate (or, where the spec names none, this helper's
    /// reference point), and any other device's static power unchanged.
    pub fn scaled_power(&self, spec: &DeviceSpec, bits: BitWidth, rate: Frequency) -> Power {
        let ref_bits = spec.resolution().unwrap_or(self.reference_bits);
        let ref_rate = spec.sampling_rate().unwrap_or(self.reference_rate);
        match spec.kind() {
            crate::DeviceKind::Dac => {
                scale_dac_power(spec.static_power(), ref_bits, ref_rate, bits, rate)
            }
            crate::DeviceKind::Adc => {
                scale_adc_power(spec.static_power(), ref_bits, ref_rate, bits, rate)
            }
            _ => spec.static_power(),
        }
    }
}

impl Default for ConverterScaling {
    fn default() -> Self {
        Self::new(BitWidth::new(8), Frequency::from_gigahertz(10.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DeviceKind;
    use crate::spec::Footprint;

    #[test]
    fn dac_power_scales_with_rate_linearly() {
        let p = scale_dac_power(
            Power::from_milliwatts(20.0),
            BitWidth::new(8),
            Frequency::from_gigahertz(10.0),
            BitWidth::new(8),
            Frequency::from_gigahertz(5.0),
        );
        assert!((p.milliwatts() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn adc_power_halves_per_bit_removed() {
        let p8 = Power::from_milliwatts(16.0);
        let p7 = scale_adc_power(
            p8,
            BitWidth::new(8),
            Frequency::from_gigahertz(10.0),
            BitWidth::new(7),
            Frequency::from_gigahertz(10.0),
        );
        assert!((p7.milliwatts() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn energy_increases_monotonically_with_bits() {
        // The Fig. 9(b) trend: higher precision costs more converter power.
        let mut last = 0.0;
        for bits in 2..=8 {
            let p = scale_adc_power(
                Power::from_milliwatts(14.8),
                BitWidth::new(8),
                Frequency::from_gigahertz(10.0),
                BitWidth::new(bits),
                Frequency::from_gigahertz(10.0),
            );
            assert!(p.milliwatts() > last);
            last = p.milliwatts();
        }
    }

    #[test]
    fn rescale_only_touches_converters() {
        let mzm = DeviceSpec::builder("mzm", DeviceKind::Mzm)
            .footprint(Footprint::from_um(250.0, 25.0))
            .static_power(Power::from_milliwatts(1.0))
            .build()
            .expect("valid");
        let scaling = ConverterScaling::default();
        let out = scaling.rescale(&mzm, BitWidth::new(4), Frequency::from_gigahertz(5.0));
        assert_eq!(out, mzm);

        let dac = DeviceSpec::builder("dac", DeviceKind::Dac)
            .static_power(Power::from_milliwatts(26.0))
            .resolution(BitWidth::new(8))
            .sampling_rate(Frequency::from_gigahertz(10.0))
            .build()
            .expect("valid");
        let out = scaling.rescale(&dac, BitWidth::new(4), Frequency::from_gigahertz(10.0));
        assert!(out.static_power().milliwatts() < 2.0);
        assert_eq!(out.resolution(), Some(BitWidth::new(4)));
    }
}
