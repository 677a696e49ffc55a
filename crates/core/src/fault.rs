//! Fault *processes*: deterministic, seeded stochastic disturbance over a
//! whole run. The one-shot [`FaultInjection`] window of the recovery
//! campaigns is the degenerate process, [`FaultProcess::Once`].
//!
//! A process is a recipe with two halves:
//!
//! * [`FaultProcess::sites`] — the corruption gates it needs. Each site is
//!   one rail-level [`FaultInjection`]; compiling with
//!   [`crate::compile::CompileOptions::faults`] splices one gate and one
//!   `fault.<channel>.<rail>` arm input per site, in site order.
//! * [`FaultProcess::windows`] — the deterministic seeded expansion of the
//!   process into per-site arm windows for one trial (`lane`). The same
//!   `(seed, lane, cycles)` triple always yields the same windows, so the
//!   behavioural simulator, the packed wide tape and the DMG replayer's
//!   tolerance windows all see *the same* disturbance — bit-identity
//!   between backends survives fault injection.
//!
//! The classes mirror the self-stabilization literature: a `Once`
//! transient (one window per trial), `Periodic` re-injection (duty-cycled
//! single site), `Sustained` stuck-at intervals, `Correlated` multi-site
//! bursts (several channels struck in the same window), and a `Byzantine`
//! channel adversary that presents *different* rail values to the producer
//! and consumer sides of one channel — spliced as two independent
//! corruption gates (forward valid lies to the consumer, forward stop lies
//! to the producer) armed from per-side stimulus columns with a
//! half-period phase shift, so the two channel ends hold mutually
//! inconsistent protocol views while armed.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::compile::{FaultInjection, FaultRail};
use crate::error::CoreError;
use crate::network::ElasticNetwork;

/// Per-lane stagger of process window starts: lane `k`'s windows shift by
/// `k % PROCESS_STAGGER` cycles, so packed trials run genuinely
/// independent process instances.
pub const PROCESS_STAGGER: usize = 4;

/// A deterministic fault process emitting disturbance over a whole run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultProcess {
    /// One transient window per trial: `fault` armed for `len` cycles from
    /// `start` — a single-event upset when `len == 1`. Any rail fault may
    /// ride it, unlike [`FaultProcess::Sustained`]'s stuck-at intervals.
    Once {
        /// The rail fault armed in the window.
        fault: FaultInjection,
        /// Window start cycle (before per-lane stagger).
        start: usize,
        /// Window length in cycles.
        len: usize,
    },
    /// Re-inject `fault` every `period` cycles, armed for `duty` cycles per
    /// period — a duty-cycled single-site disturbance. `duty == 0` is a
    /// legal zero-intensity process (no windows at all), the control case
    /// of the stabilization campaigns.
    Periodic {
        /// The rail fault re-injected each period.
        fault: FaultInjection,
        /// Cycle distance between consecutive injection starts.
        period: usize,
        /// Armed cycles per period (the intensity; must not exceed
        /// `period`).
        duty: usize,
        /// First injection start cycle (before per-lane stagger).
        start: usize,
    },
    /// One long stuck-at interval — the sustained-disturbance regime. Only
    /// [`FaultInjection::StuckAt`] sites make sense here: a flip held for a
    /// whole interval is just an inverted channel, not a stuck rail.
    Sustained {
        /// The stuck-at fault held for the interval.
        fault: FaultInjection,
        /// Interval start cycle (before per-lane stagger).
        start: usize,
        /// Interval length in cycles.
        len: usize,
    },
    /// `bursts` windows, each striking **all** listed sites in the same
    /// `len`-cycle window — the multi-site correlated regime. Burst starts
    /// are seeded and stratified: burst `b` lands inside the `b`-th of
    /// `bursts` equal strata of the horizon, so disturbance spreads over
    /// the run while staying deterministic per `(seed, lane)`.
    Correlated {
        /// The rail faults struck together (distinct channel rails).
        faults: Vec<FaultInjection>,
        /// Number of burst windows over the horizon.
        bursts: usize,
        /// Length of each burst window in cycles.
        len: usize,
    },
    /// A Byzantine adversary on one channel: while armed, the consumer sees
    /// a flipped forward valid (`V⁺`) and the producer a flipped forward
    /// stop (`S⁺`) — with the two arm streams phase-shifted by half a
    /// period, the two channel ends disagree about the very same
    /// handshake. Expands to two [`FaultInjection::RailFlip`] sites.
    Byzantine {
        /// Display name of the attacked channel.
        channel: String,
        /// Cycle distance between consecutive lie windows (≥ 2, so the two
        /// sides can actually be armed at different times).
        period: usize,
        /// Armed cycles per period and side (must not exceed `period`).
        duty: usize,
    },
}

impl FaultProcess {
    /// Short class label for campaign reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultProcess::Once { .. } => "once",
            FaultProcess::Periodic { .. } => "periodic",
            FaultProcess::Sustained { .. } => "sustained",
            FaultProcess::Correlated { .. } => "correlated",
            FaultProcess::Byzantine { .. } => "byzantine",
        }
    }

    /// The corruption-gate sites this process arms, in site order. Site
    /// `i`'s arm stream is window list `i` of [`Self::windows`], and fault
    /// site `i` of [`crate::verify::Schedule::arm_fault`] and
    /// [`crate::verify::PackedStimulus::arm_fault`].
    pub fn sites(&self) -> Vec<FaultInjection> {
        match self {
            FaultProcess::Once { fault, .. }
            | FaultProcess::Periodic { fault, .. }
            | FaultProcess::Sustained { fault, .. } => vec![fault.clone()],
            FaultProcess::Correlated { faults, .. } => faults.clone(),
            FaultProcess::Byzantine { channel, .. } => vec![
                FaultInjection::RailFlip {
                    channel: channel.clone(),
                    rail: FaultRail::Vp,
                },
                FaultInjection::RailFlip {
                    channel: channel.clone(),
                    rail: FaultRail::Sp,
                },
            ],
        }
    }

    /// Eagerly validates the process against a network and a horizon —
    /// every entry point (behavioural injection, compile splicing, packed
    /// arming, replay tolerance) runs this first, so a malformed spec is a
    /// typed error before any work happens.
    ///
    /// # Errors
    ///
    /// * [`CoreError::FaultSite`] — a site names a channel the network does
    ///   not have (same error the compiler would raise);
    /// * [`CoreError::FaultProcess`] — structural sites in a process, two
    ///   sites on the same channel rail (overlapping windows on one rail),
    ///   an intensity exceeding its window (`duty > period`, a burst longer
    ///   than its stratum, a one-shot or sustained window that is empty or
    ///   past the horizon), a non-stuck-at sustained fault, a degenerate
    ///   period, or a Byzantine adversary on a passive channel (which has
    ///   no producer-side stop to corrupt — only one side rail exists, so
    ///   it cannot be lied to from both ends).
    pub fn validate(&self, net: &ElasticNetwork, cycles: usize) -> Result<(), CoreError> {
        let mut seen: Vec<(String, FaultRail)> = Vec::new();
        for site in self.sites() {
            let Some(chan) = site.channel() else {
                return Err(CoreError::FaultProcess(format!(
                    "structural fault {:?} cannot ride a fault process; only rail sites are armed",
                    site.label()
                )));
            };
            if !net.channels().any(|c| net.channel(c).name == chan) {
                return Err(CoreError::FaultSite(format!(
                    "no channel named {chan:?} to corrupt"
                )));
            }
            let rail = site.rail().expect("rail faults target a rail");
            let key = (chan.to_string(), rail);
            if seen.contains(&key) {
                return Err(CoreError::FaultProcess(format!(
                    "two sites on channel {chan:?} rail {}: overlapping windows on one rail \
                     must share a single site",
                    rail.label()
                )));
            }
            seen.push(key);
        }
        match self {
            FaultProcess::Periodic {
                period,
                duty,
                start,
                ..
            } => {
                check_duty_cycle("periodic", *period, *duty, *start, cycles)?;
            }
            FaultProcess::Sustained { fault, .. }
                if !matches!(fault, FaultInjection::StuckAt { .. }) =>
            {
                return Err(CoreError::FaultProcess(format!(
                    "sustained intervals hold a stuck-at rail; {:?} is not a stuck-at fault",
                    fault.label()
                )));
            }
            FaultProcess::Once { start, len, .. } | FaultProcess::Sustained { start, len, .. } => {
                let what = self.label();
                if *len == 0 {
                    return Err(CoreError::FaultProcess(format!(
                        "zero-length {what} window"
                    )));
                }
                if start.checked_add(*len).is_none_or(|e| e > cycles) {
                    return Err(CoreError::FaultProcess(format!(
                        "{what} window {start}+{len} exceeds the {cycles}-cycle horizon"
                    )));
                }
            }
            FaultProcess::Correlated {
                faults,
                bursts,
                len,
            } => {
                if faults.is_empty() {
                    return Err(CoreError::FaultProcess(
                        "a correlated burst needs at least one site".into(),
                    ));
                }
                if let Some(stratum) = cycles.checked_div(*bursts) {
                    if *len == 0 {
                        return Err(CoreError::FaultProcess("zero-length burst window".into()));
                    }
                    if *len > stratum {
                        return Err(CoreError::FaultProcess(format!(
                            "burst length {len} exceeds the {stratum}-cycle stratum of \
                             {bursts} bursts over {cycles} cycles"
                        )));
                    }
                }
            }
            FaultProcess::Byzantine {
                channel,
                period,
                duty,
            } => {
                if *period < 2 {
                    return Err(CoreError::FaultProcess(
                        "a byzantine adversary needs a period of at least two cycles \
                         to arm the two sides at different times"
                            .into(),
                    ));
                }
                check_duty_cycle("byzantine", *period, *duty, 0, cycles)?;
                if let Some(c) = net.channels().find(|&c| net.channel(c).name == *channel) {
                    if net.channel(c).passive {
                        return Err(CoreError::FaultProcess(format!(
                            "channel {channel:?} is passive: its producer-side stop is a \
                             synthesized boundary inverter, so there are not two independent \
                             side rails to lie on"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Deterministic seeded expansion into per-site arm windows for trial
    /// `lane` over a `cycles` horizon: `windows()[site]` is a list of
    /// `(start, len)` pairs for [`Self::sites`]`()[site]`. Starts carry the
    /// per-lane [`PROCESS_STAGGER`] shift (and, for `Correlated`, a seeded
    /// stratified draw), clamped to the horizon; the expansion depends on
    /// nothing but `(seed, lane, cycles)`, so every backend reproduces it.
    pub fn windows(&self, seed: u64, lane: usize, cycles: usize) -> Vec<Vec<(usize, usize)>> {
        let stagger = lane % PROCESS_STAGGER;
        let clamp = |start: usize, len: usize| start.min(cycles.saturating_sub(len));
        match self {
            FaultProcess::Periodic {
                period,
                duty,
                start,
                ..
            } => {
                vec![periodic_windows(
                    clamp(start.saturating_add(stagger), *duty),
                    *period,
                    *duty,
                    cycles,
                )]
            }
            FaultProcess::Once { start, len, .. } | FaultProcess::Sustained { start, len, .. } => {
                vec![vec![(clamp(start.saturating_add(stagger), *len), *len)]]
            }
            FaultProcess::Correlated {
                faults,
                bursts,
                len,
            } => {
                let mut shared: Vec<(usize, usize)> = Vec::with_capacity(*bursts);
                if *bursts > 0 && *len > 0 {
                    let stratum = cycles / *bursts;
                    for b in 0..*bursts {
                        // One RNG per (lane, burst): burst starts are
                        // independent across lanes and across bursts, but a
                        // fixed function of the campaign seed.
                        let mut rng = StdRng::seed_from_u64(
                            seed.wrapping_add((lane as u64) << 20)
                                .wrapping_add(b as u64),
                        );
                        let slack = (stratum.saturating_sub(*len) + 1) as u64;
                        let off = (rng.next_u64() % slack) as usize;
                        shared.push((clamp(b * stratum + off, *len), *len));
                    }
                }
                faults.iter().map(|_| shared.clone()).collect()
            }
            FaultProcess::Byzantine { period, duty, .. } => {
                // Per-side phase shift of half a period: while one side's
                // gate is armed the other's usually is not, so the two
                // channel ends see inconsistent rails.
                let s0 = clamp(stagger, *duty);
                let s1 = clamp(stagger + period / 2, *duty);
                vec![
                    periodic_windows(s0, *period, *duty, cycles),
                    periodic_windows(s1, *period, *duty, cycles),
                ]
            }
        }
    }

    /// Union of all site windows as sorted, merged `(start, end)` cycle
    /// ranges (end exclusive) — the disturbance intervals a DMG replay
    /// must tolerate (`Replayer::tolerate_windows` in `elastic_dmg`) and
    /// the fault events a stabilization tracker retimes on.
    pub fn merged_windows(&self, seed: u64, lane: usize, cycles: usize) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = self
            .windows(seed, lane, cycles)
            .into_iter()
            .flatten()
            .map(|(s, l)| (s as u64, (s + l) as u64))
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for (s, e) in spans {
            if s >= e {
                continue;
            }
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }
}

/// Shared duty-cycle validation of the periodic process shapes.
fn check_duty_cycle(
    what: &str,
    period: usize,
    duty: usize,
    start: usize,
    cycles: usize,
) -> Result<(), CoreError> {
    if period == 0 {
        return Err(CoreError::FaultProcess(format!(
            "{what} process with a zero-cycle period"
        )));
    }
    if duty > period {
        return Err(CoreError::FaultProcess(format!(
            "intensity {duty} exceeds the {period}-cycle window of a {what} process"
        )));
    }
    if duty > 0 && start.checked_add(duty).is_none_or(|e| e > cycles) {
        return Err(CoreError::FaultProcess(format!(
            "first {what} window {start}+{duty} exceeds the {cycles}-cycle horizon"
        )));
    }
    Ok(())
}

/// The window list of a duty-cycled periodic arm stream: `duty` cycles
/// every `period` cycles from `start`, dropping windows that no longer fit
/// the horizon. `duty == 0` yields no windows.
fn periodic_windows(
    start: usize,
    period: usize,
    duty: usize,
    cycles: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if duty == 0 || period == 0 {
        return out;
    }
    let mut s = start;
    while s + duty <= cycles {
        out.push((s, duty));
        match s.checked_add(period) {
            Some(next) => s = next,
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::linear_pipeline;

    fn flip(chan: &str) -> FaultInjection {
        FaultInjection::RailFlip {
            channel: chan.into(),
            rail: FaultRail::Vp,
        }
    }

    fn stuck(chan: &str) -> FaultInjection {
        FaultInjection::StuckAt {
            channel: chan.into(),
            rail: FaultRail::Vp,
            value: false,
        }
    }

    #[test]
    fn periodic_expansion_is_deterministic_and_staggered() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let p = FaultProcess::Periodic {
            fault: flip("c1"),
            period: 10,
            duty: 2,
            start: 3,
        };
        p.validate(&net, 40).unwrap();
        let w0 = p.windows(7, 0, 40);
        assert_eq!(w0, vec![vec![(3, 2), (13, 2), (23, 2), (33, 2)]]);
        // Lane 1 staggers by one cycle; lane 4 wraps back to lane 0's phase.
        assert_eq!(p.windows(7, 1, 40)[0][0], (4, 2));
        assert_eq!(p.windows(7, 4, 40), w0);
        // Seed does not matter for the non-random classes.
        assert_eq!(p.windows(999, 0, 40), w0);
    }

    #[test]
    fn zero_intensity_periodic_has_no_windows() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let p = FaultProcess::Periodic {
            fault: flip("c1"),
            period: 8,
            duty: 0,
            start: 0,
        };
        p.validate(&net, 64).unwrap();
        assert!(p.windows(1, 0, 64)[0].is_empty());
        assert!(p.merged_windows(1, 0, 64).is_empty());
    }

    #[test]
    fn periodic_intensity_over_window_is_typed() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let p = FaultProcess::Periodic {
            fault: flip("c1"),
            period: 4,
            duty: 5,
            start: 0,
        };
        assert!(matches!(
            p.validate(&net, 64),
            Err(CoreError::FaultProcess(_))
        ));
        let p = FaultProcess::Periodic {
            fault: flip("c1"),
            period: 0,
            duty: 0,
            start: 0,
        };
        assert!(matches!(
            p.validate(&net, 64),
            Err(CoreError::FaultProcess(_))
        ));
    }

    #[test]
    fn sustained_requires_stuck_at_and_fitting_interval() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let ok = FaultProcess::Sustained {
            fault: stuck("c1"),
            start: 5,
            len: 10,
        };
        ok.validate(&net, 32).unwrap();
        assert_eq!(ok.windows(0, 0, 32), vec![vec![(5, 10)]]);
        let wrong_class = FaultProcess::Sustained {
            fault: flip("c1"),
            start: 5,
            len: 10,
        };
        assert!(matches!(
            wrong_class.validate(&net, 32),
            Err(CoreError::FaultProcess(_))
        ));
        let too_long = FaultProcess::Sustained {
            fault: stuck("c1"),
            start: 30,
            len: 10,
        };
        assert!(matches!(
            too_long.validate(&net, 32),
            Err(CoreError::FaultProcess(_))
        ));
    }

    #[test]
    fn once_window_is_staggered_and_clamped_per_lane() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let (cycles, len) = (32usize, 3usize);
        for start in [0usize, 5, 27, 29] {
            let p = FaultProcess::Once {
                fault: flip("c1"),
                start,
                len,
            };
            p.validate(&net, cycles).unwrap();
            assert_eq!(p.sites(), vec![flip("c1")]);
            for lane in 0..9 {
                let s = (start + lane % PROCESS_STAGGER).min(cycles - len);
                assert_eq!(p.windows(3, lane, cycles), vec![vec![(s, len)]]);
                assert_eq!(
                    p.merged_windows(3, lane, cycles),
                    vec![(s as u64, (s + len) as u64)]
                );
            }
        }
    }

    #[test]
    fn once_rejects_structural_empty_and_late_windows() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        for bad in [
            FaultProcess::Once {
                fault: FaultInjection::DropAntiToken { join: "j".into() },
                start: 0,
                len: 1,
            },
            FaultProcess::Once {
                fault: flip("c1"),
                start: 3,
                len: 0,
            },
            FaultProcess::Once {
                fault: flip("c1"),
                start: 30,
                len: 3,
            },
            FaultProcess::Once {
                fault: flip("c1"),
                start: usize::MAX,
                len: 2,
            },
        ] {
            assert!(
                matches!(bad.validate(&net, 32), Err(CoreError::FaultProcess(_))),
                "{bad:?}"
            );
        }
        // A window ending exactly at the horizon fits.
        FaultProcess::Once {
            fault: stuck("c1"),
            start: 29,
            len: 3,
        }
        .validate(&net, 32)
        .unwrap();
    }

    #[test]
    fn correlated_bursts_are_stratified_and_shared_across_sites() {
        let (net, _, _) = linear_pipeline(3, 1).unwrap();
        let p = FaultProcess::Correlated {
            faults: vec![flip("c1"), stuck("c2")],
            bursts: 4,
            len: 3,
        };
        p.validate(&net, 64).unwrap();
        let w = p.windows(42, 2, 64);
        assert_eq!(w.len(), 2, "one window list per site");
        assert_eq!(w[0], w[1], "correlated sites share the burst windows");
        assert_eq!(w[0].len(), 4);
        for (b, &(s, l)) in w[0].iter().enumerate() {
            assert_eq!(l, 3);
            assert!(s >= b * 16 && s + l <= (b + 1) * 16, "burst {b} at {s}");
        }
        // Deterministic in (seed, lane); different across lanes.
        assert_eq!(p.windows(42, 2, 64), w);
        assert_ne!(p.windows(43, 2, 64), w);
    }

    #[test]
    fn correlated_rejects_rail_overlap_and_oversized_bursts() {
        let (net, _, _) = linear_pipeline(3, 1).unwrap();
        // DuplicateToken and LoseToken both target V⁺ of the channel.
        let overlap = FaultProcess::Correlated {
            faults: vec![
                FaultInjection::DuplicateToken {
                    channel: "c1".into(),
                },
                FaultInjection::LoseToken {
                    channel: "c1".into(),
                },
            ],
            bursts: 1,
            len: 2,
        };
        assert!(matches!(
            overlap.validate(&net, 64),
            Err(CoreError::FaultProcess(_))
        ));
        let oversized = FaultProcess::Correlated {
            faults: vec![flip("c1")],
            bursts: 4,
            len: 17,
        };
        assert!(matches!(
            oversized.validate(&net, 64),
            Err(CoreError::FaultProcess(_))
        ));
        let empty = FaultProcess::Correlated {
            faults: vec![],
            bursts: 1,
            len: 1,
        };
        assert!(matches!(
            empty.validate(&net, 64),
            Err(CoreError::FaultProcess(_))
        ));
        let unknown = FaultProcess::Correlated {
            faults: vec![flip("nope")],
            bursts: 1,
            len: 1,
        };
        assert!(matches!(
            unknown.validate(&net, 64),
            Err(CoreError::FaultSite(_))
        ));
        let structural = FaultProcess::Correlated {
            faults: vec![FaultInjection::DropAntiToken { join: "j".into() }],
            bursts: 1,
            len: 1,
        };
        assert!(matches!(
            structural.validate(&net, 64),
            Err(CoreError::FaultProcess(_))
        ));
    }

    #[test]
    fn byzantine_expands_to_two_phase_shifted_sides() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let p = FaultProcess::Byzantine {
            channel: "c1".into(),
            period: 8,
            duty: 2,
        };
        p.validate(&net, 32).unwrap();
        let sites = p.sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].rail(), Some(FaultRail::Vp));
        assert_eq!(sites[1].rail(), Some(FaultRail::Sp));
        let w = p.windows(0, 0, 32);
        assert_eq!(w[0], vec![(0, 2), (8, 2), (16, 2), (24, 2)]);
        assert_eq!(w[1], vec![(4, 2), (12, 2), (20, 2), (28, 2)]);
        // While side 0 is armed side 1 never is: the two channel ends
        // disagree rather than seeing one consistent corruption.
        for &(s0, l0) in &w[0] {
            for &(s1, l1) in &w[1] {
                assert!(s0 + l0 <= s1 || s1 + l1 <= s0, "sides overlap");
            }
        }
        assert_eq!(p.merged_windows(0, 0, 32).len(), 8);
    }

    #[test]
    fn byzantine_needs_two_real_sides() {
        let (mut net, _, cout) = linear_pipeline(2, 1).unwrap();
        let one_cycle = FaultProcess::Byzantine {
            channel: "c1".into(),
            period: 1,
            duty: 1,
        };
        assert!(matches!(
            one_cycle.validate(&net, 32),
            Err(CoreError::FaultProcess(_))
        ));
        let name = net.channel(cout).name.clone();
        net.set_passive(cout).unwrap();
        let passive = FaultProcess::Byzantine {
            channel: name,
            period: 8,
            duty: 2,
        };
        assert!(matches!(
            passive.validate(&net, 32),
            Err(CoreError::FaultProcess(_))
        ));
    }

    #[test]
    fn merged_windows_union_overlapping_spans() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let p = FaultProcess::Byzantine {
            channel: "c1".into(),
            period: 2,
            duty: 2,
        };
        p.validate(&net, 8).unwrap();
        // duty == period: both sides are always armed → one solid span.
        assert_eq!(p.merged_windows(0, 0, 8), vec![(0, 8)]);
    }
}
