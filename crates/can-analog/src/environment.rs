use serde::{Deserialize, Serialize};
use std::fmt;

/// A high-power vehicle function exercised during the battery-voltage
/// experiment (thesis §4.4.2: "we turned on and off all of the interior and
/// exterior lights, the air conditioning (A/C), and then both together").
///
/// Each event sinks current from the battery while the engine is off
/// (accessory mode), dropping the effective supply seen by the ECUs by a few
/// tens of millivolts — enough to move Mahalanobis distances measurably
/// (Figure 4.7) but not enough to trip the detector (Table 4.9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PowerEvent {
    /// Accessory mode with no extra loads: the training condition.
    #[default]
    Baseline,
    /// Interior lights on.
    InteriorLights,
    /// Exterior lights on.
    ExteriorLights,
    /// All interior and exterior lights on.
    AllLights,
    /// Air conditioning blower on.
    AirConditioning,
    /// Lights and A/C together — the most current-consuming event, which
    /// the thesis observes causes the largest distance increase.
    LightsAndAc,
}

impl PowerEvent {
    /// All events in the order the thesis exercises them.
    pub const ALL: [PowerEvent; 6] = [
        PowerEvent::Baseline,
        PowerEvent::InteriorLights,
        PowerEvent::ExteriorLights,
        PowerEvent::AllLights,
        PowerEvent::AirConditioning,
        PowerEvent::LightsAndAc,
    ];

    /// Supply-rail droop caused by the event's load current through the
    /// harness resistance, in volts.
    pub fn supply_drop_v(self) -> f64 {
        match self {
            PowerEvent::Baseline => 0.0,
            PowerEvent::InteriorLights => 0.006,
            PowerEvent::ExteriorLights => 0.012,
            PowerEvent::AllLights => 0.018,
            PowerEvent::AirConditioning => 0.022,
            PowerEvent::LightsAndAc => 0.042,
        }
    }
}

impl fmt::Display for PowerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PowerEvent::Baseline => "baseline",
            PowerEvent::InteriorLights => "interior lights",
            PowerEvent::ExteriorLights => "exterior lights",
            PowerEvent::AllLights => "all lights",
            PowerEvent::AirConditioning => "a/c",
            PowerEvent::LightsAndAc => "lights + a/c",
        };
        f.write_str(name)
    }
}

/// The operating environment during a capture: ambient/ECU temperature,
/// battery voltage, and any active high-power load.
///
/// The thesis' reference conditions: engine idling holds the battery at
/// 13.60 V (alternator), accessory mode sits around 12.6 V; the temperature
/// experiment spans −5 °C to 25 °C at the ECM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Representative ECU temperature in °C.
    pub temperature_c: f64,
    /// Battery terminal voltage in volts.
    pub battery_v: f64,
    /// Active high-power vehicle function.
    pub power_event: PowerEvent,
}

impl Environment {
    /// Nominal battery voltage with the engine running (thesis §4.4.1:
    /// "the battery stayed at 13.60 V ± 0.03 V").
    pub const ENGINE_RUNNING_V: f64 = 13.60;
    /// Nominal battery voltage in accessory mode before trials
    /// (thesis §4.4.2: "12.61 V ± 0.02 V").
    pub const ACCESSORY_V: f64 = 12.61;
    /// Reference temperature at which transceiver parameters are specified.
    pub const REFERENCE_TEMP_C: f64 = 25.0;

    /// Engine idling at a given temperature — the temperature-experiment
    /// setting (§4.4.1).
    pub fn idling_at(temperature_c: f64) -> Self {
        Environment {
            temperature_c,
            battery_v: Self::ENGINE_RUNNING_V,
            power_event: PowerEvent::Baseline,
        }
    }

    /// Accessory mode with a given load event — the voltage-experiment
    /// setting (§4.4.2).
    pub fn accessory(power_event: PowerEvent) -> Self {
        Environment {
            temperature_c: 28.4, // §4.4.2: "we maintained 28.4 °C ± 0.4 °C"
            battery_v: Self::ACCESSORY_V,
            power_event,
        }
    }

    /// The supply voltage actually reaching the ECUs: battery minus the
    /// active event's harness droop.
    pub fn effective_supply_v(&self) -> f64 {
        self.battery_v - self.power_event.supply_drop_v()
    }

    /// Temperature delta from the transceiver reference point.
    pub fn temp_delta_c(&self) -> f64 {
        self.temperature_c - Self::REFERENCE_TEMP_C
    }
}

impl Default for Environment {
    /// Engine running at the reference temperature.
    fn default() -> Self {
        Environment {
            temperature_c: Self::REFERENCE_TEMP_C,
            battery_v: Self::ENGINE_RUNNING_V,
            power_event: PowerEvent::Baseline,
        }
    }
}

/// A time-varying supply-rail condition spanning a capture session.
///
/// [`PowerEvent`] models the thesis' steady-state load droops (tens of
/// millivolts); `PowerState` models the transient the thesis never
/// exercises — a brownout ramp, as seen during engine cranking or a harness
/// short, where the rail sags by whole volts and recovers. Used by the
/// `vehicle-sim` chaos scenarios to drive degraded-mode testing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PowerState {
    /// Rail steady at the nominal voltage.
    #[default]
    Nominal,
    /// A trapezoidal sag: the rail ramps down over `ramp_s` starting at
    /// `start_s`, holds `depth_v` below nominal for `hold_s`, then ramps
    /// back up over `ramp_s`.
    Brownout {
        /// Session time at which the sag begins, in seconds.
        start_s: f64,
        /// Ramp-down (and ramp-up) duration in seconds; `<= 0` means a step.
        ramp_s: f64,
        /// Duration at full depth, in seconds.
        hold_s: f64,
        /// Sag depth below nominal, in volts.
        depth_v: f64,
    },
}

impl PowerState {
    /// The battery voltage at session time `t_s`, given the nominal rail.
    pub fn battery_v_at(&self, nominal_v: f64, t_s: f64) -> f64 {
        nominal_v - self.sag_v_at(t_s)
    }

    /// How far the rail sits below nominal at `t_s`, in volts.
    pub fn sag_v_at(&self, t_s: f64) -> f64 {
        match *self {
            PowerState::Nominal => 0.0,
            PowerState::Brownout {
                start_s,
                ramp_s,
                hold_s,
                depth_v,
            } => {
                let ramp = ramp_s.max(0.0);
                let t = t_s - start_s;
                if t < 0.0 || t > 2.0 * ramp + hold_s {
                    0.0
                } else if t < ramp {
                    depth_v * (t / ramp)
                } else if t <= ramp + hold_s {
                    depth_v
                } else {
                    depth_v * (1.0 - (t - ramp - hold_s) / ramp)
                }
            }
        }
    }

    /// The sag as a fraction of the nominal rail at `t_s` (`0..=1`), the
    /// scale factor chaos scenarios apply to the differential drive.
    pub fn sag_fraction_at(&self, nominal_v: f64, t_s: f64) -> f64 {
        if nominal_v <= 0.0 {
            return 0.0;
        }
        (self.sag_v_at(t_s) / nominal_v).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_reference_conditions() {
        let env = Environment::default();
        assert_eq!(env.temperature_c.to_bits(), 25.0_f64.to_bits());
        assert_eq!(env.battery_v.to_bits(), 13.60_f64.to_bits());
        assert_eq!(env.power_event, PowerEvent::Baseline);
        assert_eq!(env.temp_delta_c().to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn lights_and_ac_is_the_largest_load() {
        let max = PowerEvent::ALL
            .iter()
            .map(|e| e.supply_drop_v())
            .fold(0.0, f64::max);
        assert_eq!(
            max.to_bits(),
            PowerEvent::LightsAndAc.supply_drop_v().to_bits()
        );
    }

    #[test]
    fn baseline_has_no_droop() {
        assert_eq!(
            PowerEvent::Baseline.supply_drop_v().to_bits(),
            0.0_f64.to_bits()
        );
        let env = Environment::accessory(PowerEvent::Baseline);
        assert_eq!(
            env.effective_supply_v().to_bits(),
            Environment::ACCESSORY_V.to_bits()
        );
    }

    #[test]
    fn effective_supply_subtracts_droop() {
        let env = Environment::accessory(PowerEvent::LightsAndAc);
        assert!(env.effective_supply_v() < Environment::ACCESSORY_V);
        assert!(
            (env.effective_supply_v()
                - (Environment::ACCESSORY_V - PowerEvent::LightsAndAc.supply_drop_v()))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn idling_preset_matches_thesis() {
        let env = Environment::idling_at(-5.0);
        assert_eq!(
            env.battery_v.to_bits(),
            Environment::ENGINE_RUNNING_V.to_bits()
        );
        assert_eq!(env.temperature_c.to_bits(), (-5.0_f64).to_bits());
    }

    #[test]
    fn event_display_names_are_human_readable() {
        assert_eq!(PowerEvent::LightsAndAc.to_string(), "lights + a/c");
        assert_eq!(PowerEvent::Baseline.to_string(), "baseline");
    }

    #[test]
    fn nominal_power_state_never_sags() {
        let state = PowerState::Nominal;
        for t in [0.0, 1.0, 100.0] {
            assert_eq!(state.battery_v_at(13.6, t).to_bits(), 13.6_f64.to_bits());
            assert_eq!(state.sag_fraction_at(13.6, t).to_bits(), 0.0_f64.to_bits());
        }
    }

    #[test]
    fn brownout_ramp_is_trapezoidal() {
        let state = PowerState::Brownout {
            start_s: 1.0,
            ramp_s: 0.5,
            hold_s: 2.0,
            depth_v: 6.8,
        };
        assert_eq!(state.sag_v_at(0.5).to_bits(), 0.0_f64.to_bits()); // before
        assert!((state.sag_v_at(1.25) - 3.4).abs() < 1e-12); // mid ramp-down
        assert_eq!(state.sag_v_at(2.0).to_bits(), 6.8_f64.to_bits()); // hold
        assert!((state.sag_v_at(3.75) - 3.4).abs() < 1e-12); // mid ramp-up
        assert_eq!(state.sag_v_at(5.0).to_bits(), 0.0_f64.to_bits()); // after
        assert!((state.sag_fraction_at(13.6, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_ramp_brownout_is_a_step() {
        let state = PowerState::Brownout {
            start_s: 1.0,
            ramp_s: 0.0,
            hold_s: 1.0,
            depth_v: 2.0,
        };
        assert_eq!(state.sag_v_at(0.999).to_bits(), 0.0_f64.to_bits());
        assert_eq!(state.sag_v_at(1.5).to_bits(), 2.0_f64.to_bits());
        assert_eq!(state.sag_v_at(2.5).to_bits(), 0.0_f64.to_bits());
    }
}
