//! J1939 signal encoding and driving dynamics.
//!
//! The thesis' Vehicle B capture was taken while "the driver performed
//! various maneuvers, such as hard acceleration, sudden braking, gear
//! shifting, and steering" (§4.1). Payload content never reaches the
//! classifier directly — vProfile reads only the first edge set — but it
//! *does* shape the wire: data bits determine stuff-bit positions and frame
//! lengths, hence bus load and arbitration pressure. This module encodes
//! the common broadcast signals with their standard SPN scalings and drives
//! them from a simple longitudinal vehicle model, so captures carry
//! physically plausible bit patterns instead of white noise.

use serde::{Deserialize, Serialize};

/// Encodes engine speed into EEC1 (PGN 61444 / 0xF004) bytes 4–5:
/// SPN 190, 0.125 rpm/bit.
pub fn encode_eec1(engine_rpm: f64, payload: &mut [u8; 8]) {
    let raw = ((engine_rpm / 0.125).round() as u64).min(0xFAFF) as u16;
    payload[3] = (raw & 0xFF) as u8;
    payload[4] = (raw >> 8) as u8;
}

/// Decodes engine speed back out of an EEC1 payload.
pub fn decode_eec1(payload: &[u8; 8]) -> f64 {
    let raw = u16::from(payload[3]) | (u16::from(payload[4]) << 8);
    f64::from(raw) * 0.125
}

/// Encodes wheel-based vehicle speed into CCVS (PGN 65265 / 0xFEF1)
/// bytes 2–3: SPN 84, 1/256 km/h per bit.
pub fn encode_ccvs(speed_kph: f64, payload: &mut [u8; 8]) {
    let raw = ((speed_kph * 256.0).round() as u64).min(0xFAFF) as u16;
    payload[1] = (raw & 0xFF) as u8;
    payload[2] = (raw >> 8) as u8;
}

/// Decodes wheel-based vehicle speed from a CCVS payload.
pub fn decode_ccvs(payload: &[u8; 8]) -> f64 {
    let raw = u16::from(payload[1]) | (u16::from(payload[2]) << 8);
    f64::from(raw) / 256.0
}

/// Encodes brake pedal position into EBC1 (PGN 61441 / 0xF001) byte 1:
/// SPN 521, 0.4 %/bit.
pub fn encode_ebc1(brake_percent: f64, payload: &mut [u8; 8]) {
    payload[1] = ((brake_percent / 0.4).round() as u64).min(250) as u8;
}

/// Decodes brake pedal position from an EBC1 payload.
pub fn decode_ebc1(payload: &[u8; 8]) -> f64 {
    f64::from(payload[1]) * 0.4
}

/// One of the manoeuvres the thesis names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Maneuver {
    /// Steady cruising at the current speed.
    Cruise,
    /// "Hard acceleration".
    HardAcceleration,
    /// "Sudden braking".
    SuddenBraking,
    /// "Gear shifting" (momentary torque interruption).
    GearShift,
}

/// A simple longitudinal driving model producing the signal values the
/// encoders above serialize.
///
/// # Example
///
/// ```
/// use vprofile_vehicle::signals::{DrivingState, Maneuver};
///
/// let mut state = DrivingState::new();
/// state.set_maneuver(Maneuver::HardAcceleration);
/// for _ in 0..100 {
///     state.step(0.1);
/// }
/// assert!(state.speed_kph() > 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrivingState {
    speed_kph: f64,
    engine_rpm: f64,
    brake_percent: f64,
    gear: u8,
    maneuver: Maneuver,
}

impl Default for DrivingState {
    fn default() -> Self {
        Self::new()
    }
}

impl DrivingState {
    /// Starts at rest, engine idling.
    pub fn new() -> Self {
        DrivingState {
            speed_kph: 0.0,
            engine_rpm: 650.0,
            brake_percent: 0.0,
            gear: 1,
            maneuver: Maneuver::Cruise,
        }
    }

    /// Current road speed.
    pub fn speed_kph(&self) -> f64 {
        self.speed_kph
    }

    /// Current engine speed.
    pub fn engine_rpm(&self) -> f64 {
        self.engine_rpm
    }

    /// Current brake application.
    pub fn brake_percent(&self) -> f64 {
        self.brake_percent
    }

    /// Current gear (1–10, truck transmission).
    pub fn gear(&self) -> u8 {
        self.gear
    }

    /// Switches the active manoeuvre.
    pub fn set_maneuver(&mut self, maneuver: Maneuver) {
        self.maneuver = maneuver;
    }

    /// Advances the model by `dt_s` seconds.
    pub fn step(&mut self, dt_s: f64) {
        let (accel_kph_s, brake) = match self.maneuver {
            Maneuver::Cruise => (0.0, 0.0),
            Maneuver::HardAcceleration => (6.0, 0.0),
            Maneuver::SuddenBraking => (-12.0, 80.0),
            Maneuver::GearShift => (-0.5, 0.0),
        };
        self.speed_kph = (self.speed_kph + accel_kph_s * dt_s).clamp(0.0, 105.0);
        self.brake_percent = brake;

        // Gear selection: shift points every ~12 km/h.
        let target_gear = ((self.speed_kph / 12.0).floor() as u8 + 1).min(10);
        if self.maneuver == Maneuver::GearShift {
            // Torque interruption: rpm falls toward idle during the shift.
            self.engine_rpm = (self.engine_rpm - 800.0 * dt_s).max(650.0);
        } else {
            self.gear = target_gear;
            // rpm tracks speed within the gear band; idle floor at rest.
            let ratio = 55.0 / f64::from(self.gear);
            self.engine_rpm = (650.0 + self.speed_kph * ratio).clamp(650.0, 2100.0);
        }
    }

    /// Renders the state into the payload for a given PGN, leaving PGNs
    /// without a modelled signal untouched.
    pub fn fill_payload(&self, pgn: u32, payload: &mut [u8; 8]) {
        match pgn {
            0xF004 => encode_eec1(self.engine_rpm, payload),
            0xFEF1 => encode_ccvs(self.speed_kph, payload),
            0xF001 => encode_ebc1(self.brake_percent, payload),
            _ => {}
        }
    }
}

/// A scripted drive cycle: the manoeuvre sequence the thesis describes,
/// looped. Returns the manoeuvre active at `time_s`.
pub fn thesis_drive_cycle(time_s: f64) -> Maneuver {
    // 20 s cycle: accelerate, cruise, shift, cruise, brake, cruise.
    match time_s.rem_euclid(20.0) {
        t if t < 5.0 => Maneuver::HardAcceleration,
        t if t < 9.0 => Maneuver::Cruise,
        t if t < 10.0 => Maneuver::GearShift,
        t if t < 15.0 => Maneuver::Cruise,
        t if t < 17.0 => Maneuver::SuddenBraking,
        _ => Maneuver::Cruise,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eec1_round_trips_at_spn_resolution() {
        let mut payload = [0u8; 8];
        for rpm in [650.0, 1200.0, 2100.0] {
            encode_eec1(rpm, &mut payload);
            assert!((decode_eec1(&payload) - rpm).abs() <= 0.125);
        }
    }

    #[test]
    fn ccvs_round_trips_at_spn_resolution() {
        let mut payload = [0u8; 8];
        for kph in [0.0, 42.5, 104.9] {
            encode_ccvs(kph, &mut payload);
            assert!((decode_ccvs(&payload) - kph).abs() <= 1.0 / 256.0);
        }
    }

    #[test]
    fn ebc1_round_trips_at_spn_resolution() {
        let mut payload = [0u8; 8];
        for pct in [0.0, 35.0, 100.0] {
            encode_ebc1(pct, &mut payload);
            assert!((decode_ebc1(&payload) - pct).abs() <= 0.4);
        }
    }

    #[test]
    fn encoders_saturate_instead_of_wrapping() {
        let mut payload = [0u8; 8];
        encode_eec1(1e9, &mut payload);
        assert_eq!(
            decode_eec1(&payload).to_bits(),
            (f64::from(0xFAFFu16) * 0.125).to_bits()
        );
        encode_ccvs(1e9, &mut payload);
        assert!(decode_ccvs(&payload) < 256.0);
        encode_ebc1(1e9, &mut payload);
        assert_eq!(decode_ebc1(&payload).to_bits(), 100.0_f64.to_bits());
    }

    #[test]
    fn hard_acceleration_builds_speed_and_rpm() {
        let mut state = DrivingState::new();
        state.set_maneuver(Maneuver::HardAcceleration);
        for _ in 0..100 {
            state.step(0.1);
        }
        assert!(state.speed_kph() > 30.0);
        assert!(state.engine_rpm() > 650.0);
        assert!(state.gear() > 1);
    }

    #[test]
    fn sudden_braking_stops_the_truck() {
        let mut state = DrivingState::new();
        state.set_maneuver(Maneuver::HardAcceleration);
        for _ in 0..100 {
            state.step(0.1);
        }
        state.set_maneuver(Maneuver::SuddenBraking);
        for _ in 0..100 {
            state.step(0.1);
        }
        assert_eq!(state.speed_kph().to_bits(), 0.0_f64.to_bits());
        assert_eq!(state.brake_percent().to_bits(), 80.0_f64.to_bits());
    }

    #[test]
    fn gear_shift_interrupts_torque() {
        let mut state = DrivingState::new();
        state.set_maneuver(Maneuver::HardAcceleration);
        for _ in 0..80 {
            state.step(0.1);
        }
        let rpm_before = state.engine_rpm();
        state.set_maneuver(Maneuver::GearShift);
        state.step(0.5);
        assert!(state.engine_rpm() < rpm_before);
    }

    #[test]
    fn payload_fill_only_touches_modelled_pgns() {
        let mut state = DrivingState::new();
        state.set_maneuver(Maneuver::HardAcceleration);
        for _ in 0..50 {
            state.step(0.1);
        }
        let mut payload = [0xFFu8; 8];
        state.fill_payload(0xF004, &mut payload);
        assert!((decode_eec1(&payload) - state.engine_rpm()).abs() <= 0.125);
        let mut untouched = [0xABu8; 8];
        state.fill_payload(0xFEEE, &mut untouched);
        assert_eq!(untouched, [0xAB; 8]);
    }

    #[test]
    fn drive_cycle_covers_every_maneuver() {
        let mut seen = std::collections::BTreeSet::new();
        let mut t = 0.0;
        while t < 20.0 {
            seen.insert(format!("{:?}", thesis_drive_cycle(t)));
            t += 0.5;
        }
        assert_eq!(seen.len(), 4, "all four manoeuvres appear: {seen:?}");
    }

    #[test]
    fn speed_is_always_bounded() {
        let mut state = DrivingState::new();
        for k in 0..4000 {
            state.set_maneuver(thesis_drive_cycle(k as f64 * 0.05));
            state.step(0.05);
            assert!((0.0..=105.0).contains(&state.speed_kph()));
            assert!((650.0..=2100.0).contains(&state.engine_rpm()));
        }
    }
}
